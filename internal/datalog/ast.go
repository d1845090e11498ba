// Package datalog implements the Datalog-with-negation machinery of
// Section 2 and Section 5.1 of the paper "Weaker Forms of Monotonicity
// for Declarative Networking" (PODS 2014): rules as
// (head, pos, neg, ineq) quadruples, semi-positive semantics via the
// minimal fixpoint of the immediate consequence operator (with both
// naive and semi-naive evaluation), syntactic stratification and the
// stratified semantics, and the fragment classifications the paper
// studies — positive Datalog, Datalog(≠), SP-Datalog, stratified
// Datalog¬, and the connected and semi-connected variants
// con-Datalog¬ and semicon-Datalog¬.
package datalog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fact"
)

// Term is either a variable or a constant. The paper's rules range over
// variables only; constants are a standard, harmless generalization
// supported by the engine (a program that mentions constants expresses
// a non-generic mapping, which the classification helpers flag).
type Term struct {
	// Var is the variable name; empty for constants.
	Var string
	// Const is the constant value; meaningful only when Var is empty.
	Const fact.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders variables bare and constants double-quoted with the
// minimal escaping the lexer understands ('\' before '"' and '\').
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(t.Const); i++ {
		c := t.Const[i]
		if c == '"' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	b.WriteByte('"')
	return b.String()
}

// Atom is R(t1, ..., tk) for terms ti.
type Atom struct {
	Rel  string
	Args []Term
}

// AtomV builds an atom whose arguments are all variables, a convenience
// matching the paper's definition of atoms.
func AtomV(rel string, vars ...string) Atom {
	args := make([]Term, len(vars))
	for i, v := range vars {
		args[i] = V(v)
	}
	return Atom{Rel: rel, Args: args}
}

// vars returns the set of variable names occurring in the atom.
func (a Atom) vars() map[string]struct{} {
	s := make(map[string]struct{})
	for _, t := range a.Args {
		if t.IsVar() {
			s[t.Var] = struct{}{}
		}
	}
	return s
}

// String renders the atom in conventional syntax.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ","))
}

// Inequality is the constraint u ≠ v between two terms.
type Inequality struct {
	A, B Term
}

// String renders the inequality as "a != b".
func (q Inequality) String() string {
	return q.A.String() + " != " + q.B.String()
}

// Rule is a Datalog¬ rule: the quadruple (head, pos, neg, ineq) of
// Section 2. Pos must be nonempty and every variable of the rule must
// occur in Pos (safety); Validate enforces this.
type Rule struct {
	Head Atom
	Pos  []Atom
	Neg  []Atom
	Ineq []Inequality
}

// vars returns the sorted variable names of the rule, vars(ϕ).
func (r Rule) vars() []string {
	set := make(map[string]struct{})
	collect := func(a Atom) {
		for v := range a.vars() {
			set[v] = struct{}{}
		}
	}
	collect(r.Head)
	for _, a := range r.Pos {
		collect(a)
	}
	for _, a := range r.Neg {
		collect(a)
	}
	for _, q := range r.Ineq {
		if q.A.IsVar() {
			set[q.A.Var] = struct{}{}
		}
		if q.B.IsVar() {
			set[q.B.Var] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// posVars returns the set of variables occurring in positive body atoms.
func (r Rule) posVars() map[string]struct{} {
	s := make(map[string]struct{})
	for _, a := range r.Pos {
		for v := range a.vars() {
			s[v] = struct{}{}
		}
	}
	return s
}

// Validate checks well-formedness: nonempty positive body, arity at
// least one everywhere, and safety (every variable of the rule occurs
// in a positive body atom).
func (r Rule) Validate() error {
	if len(r.Pos) == 0 {
		return fmt.Errorf("rule %v: positive body must be nonempty", r)
	}
	atoms := append([]Atom{r.Head}, r.Pos...)
	atoms = append(atoms, r.Neg...)
	for _, a := range atoms {
		if a.Rel == "" {
			return fmt.Errorf("rule %v: atom with empty relation name", r)
		}
		if len(a.Args) == 0 {
			return fmt.Errorf("rule %v: nullary atom %s not allowed", r, a.Rel)
		}
	}
	pv := r.posVars()
	for _, v := range r.vars() {
		if _, ok := pv[v]; !ok {
			return fmt.Errorf("rule %v: unsafe variable %s does not occur in a positive body atom", r, v)
		}
	}
	return nil
}

// String renders the rule in conventional syntax,
// e.g. "T(x,y) :- R(x,y), !S(y), x != y.".
func (r Rule) String() string {
	var parts []string
	for _, a := range r.Pos {
		parts = append(parts, a.String())
	}
	for _, a := range r.Neg {
		parts = append(parts, "!"+a.String())
	}
	for _, q := range r.Ineq {
		parts = append(parts, q.String())
	}
	return fmt.Sprintf("%s :- %s.", r.Head, strings.Join(parts, ", "))
}

// Program is a set of Datalog¬ rules, kept in declaration order for
// reproducible output (the semantics is order-independent).
type Program struct {
	Rules []Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...Rule) *Program {
	return &Program{Rules: rules}
}

// Validate checks every rule and the arity-consistency of the induced
// schema.
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	_, err := p.Schema()
	return err
}

// Schema returns sch(P), the minimal database schema the program is
// over, failing if some relation is used at inconsistent arities.
func (p *Program) Schema() (fact.Schema, error) {
	s := make(fact.Schema)
	for _, r := range p.Rules {
		atoms := append([]Atom{r.Head}, r.Pos...)
		atoms = append(atoms, r.Neg...)
		for _, a := range atoms {
			if err := s.Declare(a.Rel, len(a.Args)); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// IDB returns idb(P): the relations occurring in rule heads.
func (p *Program) IDB() fact.Schema {
	s := make(fact.Schema)
	for _, r := range p.Rules {
		s[r.Head.Rel] = len(r.Head.Args)
	}
	return s
}

// EDB returns edb(P) = sch(P) \ idb(P). It panics if the program has
// inconsistent arities; call Validate first.
func (p *Program) EDB() fact.Schema {
	s, err := p.Schema()
	if err != nil {
		panic(err)
	}
	return s.Minus(p.IDB())
}

// hasConstants reports whether any rule mentions a constant term; such
// programs express non-generic mappings.
func (p *Program) hasConstants() bool {
	hasConst := func(a Atom) bool {
		for _, t := range a.Args {
			if !t.IsVar() {
				return true
			}
		}
		return false
	}
	for _, r := range p.Rules {
		if hasConst(r.Head) {
			return true
		}
		for _, a := range r.Pos {
			if hasConst(a) {
				return true
			}
		}
		for _, a := range r.Neg {
			if hasConst(a) {
				return true
			}
		}
		for _, q := range r.Ineq {
			if !q.A.IsVar() || !q.B.IsVar() {
				return true
			}
		}
	}
	return false
}

// isSemiPositive reports whether every negated body atom is over
// edb(P): the class SP-Datalog.
func (p *Program) isSemiPositive() bool {
	idb := p.IDB()
	for _, r := range p.Rules {
		for _, a := range r.Neg {
			if idb.Has(a.Rel) {
				return false
			}
		}
	}
	return true
}

// String renders the program one rule per line.
func (p *Program) String() string {
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}
