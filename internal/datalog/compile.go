package datalog

import (
	"fmt"

	"repro/internal/fact"
)

// This file implements the compiled-rule matcher: before a fixpoint
// (or a Valuations enumeration) runs, each Rule is compiled into a
// form whose variables are dense slots and whose relation names and
// constants are interned IDs. Matching then works entirely on
// integers — an environment is a flat []fact.ID indexed by slot, an
// atom match is a handful of uint32 compares, and grounding a head
// writes IDs into a scratch tuple — so the join/dedup hot path of the
// engines allocates nothing per candidate fact and nothing per
// duplicate derivation (see alloc_test.go). Callers outside the package
// reach the matcher through Compile and IndexedInstance.Valuations
// (delta.go) only.

// cTerm is a compiled term: a variable slot, or an interned constant.
type cTerm struct {
	slot int32   // variable slot, or -1 for a constant
	cnst fact.ID // constant symbol when slot < 0
}

// cAtom is a compiled atom over interned symbols.
type cAtom struct {
	rel   fact.ID
	terms []cTerm
}

// cIneq is a compiled inequality guard.
type cIneq struct{ a, b cTerm }

// cRule is a compiled rule. Variables are numbered by first
// occurrence scanning the positive body, then the negative body, the
// head, and the inequalities; vars maps slots back to names for error
// messages. A compiled rule is immutable once its stratum loop starts
// (evalStratum gives an invention rule its hook first) and safe to
// share across goroutines.
type cRule struct {
	src      Rule
	head     cAtom
	pos      []cAtom
	neg      []cAtom
	ineq     []cIneq
	vars     []string
	negArity int      // max arity over neg, for the guard scratch tuple
	hook     HeadHook // fills head position 0 of an invention rule
}

func compileRule(r Rule) cRule {
	cr := cRule{src: r}
	slot := func(name string) int32 {
		for i, v := range cr.vars {
			if v == name {
				return int32(i)
			}
		}
		cr.vars = append(cr.vars, name)
		return int32(len(cr.vars) - 1)
	}
	ct := func(t Term) cTerm {
		if t.IsVar() {
			return cTerm{slot: slot(t.Var)}
		}
		return cTerm{slot: -1, cnst: fact.Intern(t.Const)}
	}
	ca := func(a Atom) cAtom {
		at := cAtom{rel: fact.InternString(a.Rel), terms: make([]cTerm, len(a.Args))}
		for i, t := range a.Args {
			at.terms[i] = ct(t)
		}
		return at
	}
	cr.pos = make([]cAtom, len(r.Pos))
	for i, a := range r.Pos {
		cr.pos[i] = ca(a)
	}
	cr.neg = make([]cAtom, len(r.Neg))
	for i, a := range r.Neg {
		cr.neg[i] = ca(a)
		if len(a.Args) > cr.negArity {
			cr.negArity = len(a.Args)
		}
	}
	cr.head = ca(r.Head)
	cr.ineq = make([]cIneq, len(r.Ineq))
	for i, q := range r.Ineq {
		cr.ineq[i] = cIneq{a: ct(q.A), b: ct(q.B)}
	}
	return cr
}

func compileRules(rules []Rule) []cRule {
	crs := make([]cRule, len(rules))
	for i, r := range rules {
		crs[i] = compileRule(r)
	}
	return crs
}

// termID resolves a compiled term under the environment (NoID when the
// term is an unbound variable).
func termID(t cTerm, env []fact.ID) fact.ID {
	if t.slot < 0 {
		return t.cnst
	}
	return env[t.slot]
}

// checkGuards verifies the inequalities and negative atoms under a
// complete environment, against x. scratch is the caller's reusable
// grounding tuple.
func (cr *cRule) checkGuards(env []fact.ID, x *IndexedInstance, scratch []fact.ID) (bool, error) {
	for _, q := range cr.ineq {
		av, bv := termID(q.a, env), termID(q.b, env)
		if av == fact.NoID || bv == fact.NoID {
			return false, fmt.Errorf("datalog: unbound variable in inequality of %v", cr.src)
		}
		if av == bv {
			return false, nil
		}
	}
	for _, a := range cr.neg {
		scratch = scratch[:0]
		for _, t := range a.terms {
			v := termID(t, env)
			if v == fact.NoID {
				return false, fmt.Errorf("datalog: unbound variable in negated atom of %v", cr.src)
			}
			scratch = append(scratch, v)
		}
		if x.hasIDs(a.rel, scratch) {
			return false, nil
		}
	}
	return true, nil
}

// match enumerates all satisfying environments of cr's body against x,
// at the version x reads, and calls yield for each. The environment
// passed to yield is live — callers needing to retain values must copy.
//
// If pin >= 0, the positive atom at that index is matched first and
// ranges over pinned — a chunk of its table's rows, or a set's rows of
// its relation — instead of the index: this implements both the
// semi-naive delta discipline and the parallel engine's work
// partitioning. init, when
// non-nil, becomes the environment (the caller gives it up): its bound
// slots (from unifyHead; NoID means unbound) restrict the enumeration
// to environments extending it.
//
// The remaining atoms are ordered by selectivity exactly as the
// string-based matcher did: at each step the unmatched atom with the
// fewest candidate facts under the current environment is matched
// next. scanned, when non-nil, accumulates the number of candidate
// facts iterated.
func (cr *cRule) match(x *IndexedInstance, init []fact.ID, pin int, pinned cands, scanned *int64, yield func(env []fact.ID) error) error {
	n := len(cr.pos)
	at := x.version()
	env := init
	if env == nil {
		env = cr.newEnv()
	}
	// Each positive atom's table, resolved once for the whole
	// enumeration (nothing mutates x during it), and whether the atom
	// is matched at the current depth.
	atoms := make([]posAtom, n)
	for j, a := range cr.pos {
		atoms[j].t = x.idx.table(a.rel, len(a.terms))
	}
	guardScratch := make([]fact.ID, 0, cr.negArity)
	var nscanned int64
	var rec func(depth int) error
	rec = func(depth int) error {
		if depth == n {
			ok, err := cr.checkGuards(env, x, guardScratch)
			if err != nil || !ok {
				return err
			}
			return yield(env)
		}
		// Pick the next atom: the pinned atom first, then greedily the
		// most selective remaining one.
		var k int
		var cand cands
		if depth == 0 && pin >= 0 {
			k, cand = pin, pinned
		} else {
			k = -1
			for j := 0; j < n; j++ {
				if atoms[j].used {
					continue
				}
				c := candidatesC(cr.pos[j], atoms[j].t, env)
				if k < 0 || c.n < cand.n {
					k, cand = j, c
					if cand.n == 0 {
						break
					}
				}
			}
		}
		atoms[k].used = true
		nscanned += int64(cand.n)
		terms := cr.pos[k].terms
		var addedArr [16]int32
		for i := 0; i < cand.n; i++ {
			var args []fact.ID
			if cand.t == nil {
				args = cand.rows[i*len(terms) : (i+1)*len(terms)]
			} else {
				id := i
				if cand.ids != nil {
					id = int(cand.ids[i])
				}
				if !cand.t.sees(int32(id), at) {
					continue
				}
				args = cand.t.row(id)
			}
			added := addedArr[:0]
			ok := true
			for i, t := range terms {
				v := args[i]
				if t.slot < 0 {
					if t.cnst != v {
						ok = false
						break
					}
				} else if b := env[t.slot]; b == fact.NoID {
					env[t.slot] = v
					added = append(added, t.slot)
				} else if b != v {
					ok = false
					break
				}
			}
			if ok {
				if err := rec(depth + 1); err != nil {
					atoms[k].used = false
					return err
				}
			}
			for _, s := range added {
				env[s] = fact.NoID
			}
		}
		atoms[k].used = false
		return nil
	}
	err := rec(0)
	if scanned != nil {
		*scanned += nscanned
	}
	return err
}

// posAtom is what match keeps per positive atom of its rule.
type posAtom struct {
	t    *relTable // the atom's table, nil when there is none
	used bool      // matched at a depth above the current one
}

// groundHead writes the head tuple under env into dst (which must have
// the head's arity). All head variables must be bound, guaranteed by
// safety after the positive body matched.
func (cr *cRule) groundHead(env []fact.ID, dst []fact.ID) error {
	for i, t := range cr.head.terms {
		if t.slot < 0 {
			dst[i] = t.cnst
			continue
		}
		v := env[t.slot]
		if v == fact.NoID {
			return fmt.Errorf("datalog: unbound variable %s in %v", cr.vars[t.slot], cr.src.Head)
		}
		dst[i] = v
	}
	return nil
}

// evalRuleC enumerates all satisfying environments of cr and passes
// the derived head tuple to emit as (relation, args) IDs. The args
// slice is scratch, valid only for the duration of the emit call — the
// round executors test membership and buffer the new heads' IDs from
// it without ever materializing a Fact.
func evalRuleC(cr *cRule, x *IndexedInstance, pin int, pinned cands, scanned *int64, emit func(rel fact.ID, args []fact.ID) error) error {
	head := make([]fact.ID, len(cr.head.terms))
	return cr.match(x, nil, pin, pinned, scanned, func(env []fact.ID) error {
		if err := cr.groundHead(env, head); err != nil {
			return err
		}
		if cr.hook != nil {
			cr.hook(head)
		}
		return emit(cr.head.rel, head)
	})
}

// newEnv returns an environment with every slot unbound.
func (cr *cRule) newEnv() []fact.ID {
	env := make([]fact.ID, len(cr.vars))
	for i := range env {
		env[i] = fact.NoID
	}
	return env
}

// unifyHead unifies the rule's head with the fact in ID space and
// returns the environment every derivation of exactly that fact must
// extend. ok is false when relation, arity or a constant differs, or a
// repeated head variable would take two values.
func (cr *cRule) unifyHead(f fact.Fact) (env []fact.ID, ok bool) {
	args := f.ArgIDs()
	if f.RelID() != cr.head.rel || len(args) != len(cr.head.terms) {
		return nil, false
	}
	env = cr.newEnv()
	for i, t := range cr.head.terms {
		switch {
		case t.slot < 0:
			if t.cnst != args[i] {
				return nil, false
			}
		case env[t.slot] == fact.NoID:
			env[t.slot] = args[i]
		case env[t.slot] != args[i]:
			return nil, false
		}
	}
	return env, true
}
