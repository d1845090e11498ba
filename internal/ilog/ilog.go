// Package ilog implements wILOG¬ — weakly safe ILOG with stratified
// negation — following Section 5.2 of the paper (and Cabibbo,
// "The expressive power of stratified logic programs with value
// invention", Inf. & Comp. 1998). ILOG¬ extends Datalog¬ with
// invention relations whose first position is filled by the invention
// symbol '*' in rule heads; Skolemization replaces '*' with a Skolem
// functor term fR(u1,...,uk), and the semantics evaluates the
// Skolemized rules over the Herbrand universe of ground terms.
//
// Invented values are represented as fact.Values with a canonical
// textual encoding "$fR(v1,v2)" (recursively for nested terms); plain
// domain values never start with '$', so the encoding is injective.
//
// When the fixpoint does not converge (the invention process feeds
// itself), the output of the program is undefined; the evaluator
// detects this with a configurable bound and returns ErrDiverged.
package ilog

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// ErrDiverged is returned when the fixpoint exceeds its bound, which
// signals that the program output is (presumed) undefined — the
// invention process generates unboundedly many new values.
var ErrDiverged = errors.New("ilog: fixpoint did not converge (output undefined)")

// InventedPrefix marks invented values in the fact.Value encoding.
const InventedPrefix = "$"

// isInvented reports whether the value is an invented (Skolem) value.
func isInvented(v fact.Value) bool {
	return strings.HasPrefix(string(v), InventedPrefix)
}

// skolemValue builds the ground Skolem term fR(args...) as an encoded
// value. The functor is named after the invention relation.
func skolemValue(rel string, args []fact.Value) fact.Value {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = string(a)
	}
	return fact.Value(InventedPrefix + "f" + rel + "(" + strings.Join(parts, "\x01") + ")")
}

// Rule is an ILOG¬ rule: a Datalog¬ rule whose head may be an
// invention atom R(*, u1, ..., uk). When Invents is set, the head atom
// lists only the non-invention arguments u1..uk; the stored relation R
// then has arity len(Args)+1 with the invention position first.
type Rule struct {
	Head    datalog.Atom
	Invents bool
	Pos     []datalog.Atom
	Neg     []datalog.Atom
	Ineq    []datalog.Inequality
}

// headArity returns the arity of the head relation including the
// invention position when present.
func (r Rule) headArity() int {
	if r.Invents {
		return len(r.Head.Args) + 1
	}
	return len(r.Head.Args)
}

// asDatalogRule returns the rule as a Datalog¬ rule whose head lists
// the non-invention arguments only.
func (r Rule) asDatalogRule() datalog.Rule {
	return datalog.Rule{
		Head: r.Head,
		Pos:  r.Pos,
		Neg:  r.Neg,
		Ineq: r.Ineq,
	}
}

// validate checks rule well-formedness: safety and nonempty body, as
// for Datalog¬ (invention heads are safe when their listed arguments
// are; the invention position itself is produced, not consumed).
func (r Rule) validate() error {
	if r.Invents && len(r.Head.Args) == 0 {
		// R(*) :- Body — a unary invention relation. The head carries
		// no variables, so validate the body with a dummy head.
		if len(r.Pos) == 0 {
			return fmt.Errorf("ilog: rule %v has empty positive body", r)
		}
		d := datalog.Rule{Head: r.Pos[0], Pos: r.Pos, Neg: r.Neg, Ineq: r.Ineq}
		return d.Validate()
	}
	return r.asDatalogRule().Validate()
}

// String renders the rule; invention heads show the '*' symbol.
func (r Rule) String() string {
	if !r.Invents {
		return r.asDatalogRule().String()
	}
	if len(r.Head.Args) == 0 {
		d := datalog.Rule{Head: datalog.AtomV(r.Head.Rel, "*"), Pos: r.Pos, Neg: r.Neg, Ineq: r.Ineq}
		return d.String()
	}
	s := r.asDatalogRule().String()
	open := strings.Index(s, "(")
	return s[:open+1] + "*, " + s[open+1:]
}

// Program is an ILOG¬ program: a set of rules, some of whose heads may
// invent values.
type Program struct {
	Rules []Rule
}

// newProgram builds a program from rules.
func newProgram(rules ...Rule) *Program { return &Program{Rules: rules} }

// fromDatalog lifts a plain Datalog¬ program into an ILOG¬ program
// with no invention.
func fromDatalog(p *datalog.Program) *Program {
	out := newProgram()
	for _, r := range p.Rules {
		out.Rules = append(out.Rules, Rule{Head: r.Head, Pos: r.Pos, Neg: r.Neg, Ineq: r.Ineq})
	}
	return out
}

// body returns the program as Datalog¬, each rule through
// asDatalogRule. Stratification and connectivity read it: invention
// adds a head position, not a dependency, and the invention position is
// no body variable.
func (p *Program) body() *datalog.Program {
	d := datalog.NewProgram()
	for _, r := range p.Rules {
		d.Rules = append(d.Rules, r.asDatalogRule())
	}
	return d
}

// inventionRelations returns the relations that appear as invention
// heads.
func (p *Program) inventionRelations() map[string]bool {
	out := make(map[string]bool)
	for _, r := range p.Rules {
		if r.Invents {
			out[r.Head.Rel] = true
		}
	}
	return out
}

// schema returns sch(P) with invention relations at their full arity
// (invention position included).
func (p *Program) schema() (fact.Schema, error) {
	s := make(fact.Schema)
	for _, r := range p.Rules {
		if err := s.Declare(r.Head.Rel, r.headArity()); err != nil {
			return nil, err
		}
		for _, a := range append(append([]datalog.Atom{}, r.Pos...), r.Neg...) {
			if err := s.Declare(a.Rel, len(a.Args)); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// idb returns the head relations with their full arities.
func (p *Program) idb() fact.Schema {
	s := make(fact.Schema)
	for _, r := range p.Rules {
		s[r.Head.Rel] = r.headArity()
	}
	return s
}

// validate checks every rule, schema consistency, and that invention
// relations are used consistently (every rule deriving an invention
// relation must invent; invention relations must not also be derived
// without invention).
func (p *Program) validate() error {
	invents := p.inventionRelations()
	for _, r := range p.Rules {
		if err := r.validate(); err != nil {
			return err
		}
		if invents[r.Head.Rel] && !r.Invents {
			return fmt.Errorf("ilog: relation %s derived both with and without invention", r.Head.Rel)
		}
	}
	_, err := p.schema()
	return err
}

// String renders the program one rule per line.
func (p *Program) String() string {
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}
