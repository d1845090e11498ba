package queries

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// This file implements the "doubled program" approach the paper's
// conclusion invokes: the alternating fixpoint of the well-founded
// semantics is driven by a syntactically *stratified* program over a
// doubled schema, so each alternation step runs on the ordinary
// stratified engine. For each idb relation R the doubled program has
//
//   - an input copy R__under holding the current underestimate,
//   - an overestimate relation R__over defined by the original rules
//     with positive idb atoms pointing at __over copies and negated
//     idb atoms at the __under input (stratum 1), and
//   - a new-underestimate relation R defined by the original rules
//     with positive idb atoms recursive and negated idb atoms
//     pointing at __over (stratum 2).
//
// One stratified evaluation therefore computes Γ(under) (the
// overestimate) and Γ(Γ(under)) (the improved underestimate) at once;
// iterating to a fixed point yields the well-founded model. Crucially
// for the paper's argument, the transformation preserves rule
// connectivity — graph+(ϕ) only looks at positive body atoms, whose
// variable structure is unchanged — so the doubled program of a
// connected program is connected, and Lemma 5.2 applies to it. This is
// the "simpler proof" that win-move is in Mdisjoint.

// Doubled-schema suffixes.
const (
	underSuffix = "__under"
	overSuffix  = "__over"
)

// DoubledProgram builds the stratified doubled program of P. It fails
// when P's relation names collide with the doubled namespace.
func DoubledProgram(p *datalog.Program) (*datalog.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sch, err := p.Schema()
	if err != nil {
		return nil, err
	}
	for rel := range sch {
		if strings.HasSuffix(rel, underSuffix) || strings.HasSuffix(rel, overSuffix) {
			return nil, fmt.Errorf("queries: relation %s collides with the doubled-program namespace", rel)
		}
	}
	idb := p.IDB()

	rename := func(a datalog.Atom, suffix string) datalog.Atom {
		if !idb.Has(a.Rel) {
			return a
		}
		return datalog.Atom{Rel: a.Rel + suffix, Args: a.Args}
	}

	out := datalog.NewProgram()
	for _, r := range p.Rules {
		// Stratum 1: overestimate. Positive idb → __over (recursive);
		// negated idb → __under (input).
		over := datalog.Rule{
			Head: datalog.Atom{Rel: r.Head.Rel + overSuffix, Args: r.Head.Args},
			Ineq: r.Ineq,
		}
		for _, a := range r.Pos {
			over.Pos = append(over.Pos, rename(a, overSuffix))
		}
		for _, a := range r.Neg {
			over.Neg = append(over.Neg, rename(a, underSuffix))
		}
		out.Rules = append(out.Rules, over)

		// Stratum 2: improved underestimate. Positive idb recursive on
		// the plain names; negated idb → __over.
		under := datalog.Rule{Head: r.Head, Ineq: r.Ineq}
		for _, a := range r.Pos {
			under.Pos = append(under.Pos, a)
		}
		for _, a := range r.Neg {
			under.Neg = append(under.Neg, rename(a, overSuffix))
		}
		out.Rules = append(out.Rules, under)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// WellFoundedViaDoubled computes the well-founded model by iterating
// the doubled program to a fixed point. It agrees with WellFounded on
// every program and input (asserted in tests); it exists to make the
// conclusion's doubled-program argument executable.
func WellFoundedViaDoubled(p *datalog.Program, input *fact.Instance) (*WFSResult, error) {
	d, err := DoubledProgram(p)
	if err != nil {
		return nil, err
	}
	idb := p.IDB()

	under := fact.NewInstance()
	for {
		// Feed the current underestimate through the __under input copies.
		din := input.Clone()
		for _, f := range under.Facts() {
			din.Add(fact.FromTuple(f.Rel()+underSuffix, f.Args()))
		}
		res, err := d.EvalStratified(din, datalog.FixpointOptions{})
		if err != nil {
			return nil, err
		}
		next := fact.NewInstance()
		over := fact.NewInstance()
		res.Each(func(f fact.Fact) bool {
			switch {
			case idb.Has(f.Rel()):
				next.Add(f)
			case strings.HasSuffix(f.Rel(), overSuffix):
				base := strings.TrimSuffix(f.Rel(), overSuffix)
				if idb.Has(base) {
					over.Add(fact.FromTuple(base, f.Args()))
				}
			}
			return true
		})
		if next.Equal(under) {
			return &WFSResult{
				True:      input.Union(under),
				Undefined: over.Minus(under),
			}, nil
		}
		under = next
	}
}

// DoubledPreservesConnectivity reports whether the doubled program of
// P has the same per-rule connectivity as P — true for every program,
// since graph+ ignores relation names; exposed for the Lemma 5.2
// argument in tests and experiments.
func DoubledPreservesConnectivity(p *datalog.Program) (bool, error) {
	d, err := DoubledProgram(p)
	if err != nil {
		return false, err
	}
	if len(d.Rules) != 2*len(p.Rules) {
		return false, fmt.Errorf("queries: doubled program has %d rules, want %d", len(d.Rules), 2*len(p.Rules))
	}
	for i, r := range p.Rules {
		if d.Rules[2*i].IsConnected() != r.IsConnected() || d.Rules[2*i+1].IsConnected() != r.IsConnected() {
			return false, nil
		}
	}
	return true, nil
}
