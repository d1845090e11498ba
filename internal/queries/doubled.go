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

// doubledIDB validates P and returns its idb relations, failing when
// P's relation names collide with the doubled namespace.
func doubledIDB(p *datalog.Program) (fact.Schema, error) {
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
	return p.IDB(), nil
}

// renamed returns P's rules with their heads and positive idb atoms
// renamed by the suffix pos and their negated idb atoms by neg. With
// neg naming input copies, the rules are semi-positive: Γ's program
// when pos is empty, a stratum of the doubled program otherwise.
func renamed(p *datalog.Program, idb fact.Schema, pos, neg string) []datalog.Rule {
	rename := func(a datalog.Atom, suffix string) datalog.Atom {
		if !idb.Has(a.Rel) {
			return a
		}
		return datalog.Atom{Rel: a.Rel + suffix, Args: a.Args}
	}
	out := make([]datalog.Rule, len(p.Rules))
	for i, r := range p.Rules {
		out[i] = datalog.Rule{Head: rename(r.Head, pos), Ineq: r.Ineq}
		for _, a := range r.Pos {
			out[i].Pos = append(out[i].Pos, rename(a, pos))
		}
		for _, a := range r.Neg {
			out[i].Neg = append(out[i].Neg, rename(a, neg))
		}
	}
	return out
}

// withCopies returns the input plus a copy of every fact of assumed
// over the __under name of its relation.
func withCopies(input, assumed *fact.Instance) *fact.Instance {
	in := input.Clone()
	assumed.Each(func(f fact.Fact) bool {
		in.Add(fact.FromTuple(f.Rel()+underSuffix, f.Args()))
		return true
	})
	return in
}

// DoubledProgram builds the stratified doubled program of P. It fails
// when P's relation names collide with the doubled namespace.
func DoubledProgram(p *datalog.Program) (*datalog.Program, error) {
	idb, err := doubledIDB(p)
	if err != nil {
		return nil, err
	}
	// Stratum 1, the overestimate: positive idb atoms → __over
	// (recursive), negated idb → __under (input). Stratum 2, the improved
	// underestimate: positive idb recursive on the plain names, negated
	// idb → __over.
	over, under := renamed(p, idb, overSuffix, underSuffix), renamed(p, idb, "", overSuffix)
	out := datalog.NewProgram()
	for i := range over {
		out.Rules = append(out.Rules, over[i], under[i])
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
	idb, overs := p.IDB(), make(fact.Schema)
	for rel, ar := range idb {
		overs[rel+overSuffix] = ar
	}
	return alternate(input, fact.NewInstance(), func(under *fact.Instance) (over, next *fact.Instance, err error) {
		// Feed the current underestimate through the __under input copies.
		res, err := d.EvalStratified(withCopies(input, under), datalog.FixpointOptions{})
		if err != nil {
			return nil, nil, err
		}
		over = fact.NewInstance()
		res.Restrict(overs).Each(func(f fact.Fact) bool {
			over.Add(fact.FromTuple(strings.TrimSuffix(f.Rel(), overSuffix), f.Args()))
			return true
		})
		return over, res.Restrict(idb), nil
	})
}
