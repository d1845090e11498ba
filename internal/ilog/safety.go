package ilog

import "sort"

// This file implements the weak-safety analysis of Section 5.2: the
// set S of unsafe positions is the smallest set of pairs (R, i) such
// that (R, 1) ∈ S for every invention relation R, and whenever
// (R, i) ∈ S and a rule has R(x1..xk) in its positive body with xi
// equal (as a variable) to the j-th head argument, (T, j) ∈ S for the
// head relation T. A program is weakly safe when its output relations
// have no unsafe positions; weak safety implies safety (the output
// never contains invented values).

// Position identifies the i-th position (1-based, following the paper)
// of relation Rel.
type Position struct {
	Rel string
	Pos int
}

// UnsafePositions computes the set S of unsafe positions of the
// program, returned in deterministic order.
func (p *Program) UnsafePositions() []Position {
	unsafe := make(map[Position]bool)
	for rel := range p.inventionRelations() {
		unsafe[Position{rel, 1}] = true
	}
	for {
		changed := false
		for _, r := range p.Rules {
			// Variables bound to an unsafe position somewhere in the
			// positive body.
			tainted := make(map[string]bool)
			for _, a := range r.Pos {
				for i, t := range a.Args {
					if t.IsVar() && unsafe[Position{a.Rel, i + 1}] {
						tainted[t.Var] = true
					}
				}
			}
			if len(tainted) == 0 {
				continue
			}
			// Head offset: invention heads implicitly occupy position 1.
			offset := 1
			if r.Invents {
				offset = 2
			}
			for j, t := range r.Head.Args {
				if t.IsVar() && tainted[t.Var] {
					pos := Position{r.Head.Rel, j + offset}
					if !unsafe[pos] {
						unsafe[pos] = true
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	out := make([]Position, 0, len(unsafe))
	for pos := range unsafe {
		out = append(out, pos)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Rel != out[b].Rel {
			return out[a].Rel < out[b].Rel
		}
		return out[a].Pos < out[b].Pos
	})
	return out
}

// IsWeaklySafe reports whether none of the given output relations has
// an unsafe position (the class wILOG¬ requires this of its output).
func (p *Program) IsWeaklySafe(outputRels ...string) bool {
	outs := make(map[string]bool, len(outputRels))
	for _, rel := range outputRels {
		outs[rel] = true
	}
	for _, pos := range p.UnsafePositions() {
		if outs[pos.Rel] {
			return false
		}
	}
	return true
}

// IsSemiConnected reports whether the program is in semicon-wILOG¬:
// some stratification makes every stratum except possibly the last a
// connected SP-wILOG program. Datalog¬'s decision procedure decides it.
func (p *Program) IsSemiConnected() bool { return p.body().IsSemiConnected() }
