package datalog

import (
	"math/bits"
	"slices"
	"strings"

	"repro/internal/fact"
)

// This file implements the connectivity analysis of Section 5.1:
// graph+(ϕ) is the graph whose nodes are the variables occurring in
// positive body atoms of ϕ, with an edge between two variables when
// they co-occur in a positive body atom. A rule is connected when
// graph+(ϕ) is connected; a stratified program is connected
// (con-Datalog¬) when some stratification makes every stratum a
// connected SP-Datalog program, and semi-connected (semicon-Datalog¬)
// when some stratification makes every stratum except possibly the
// last one connected.

// IsConnected reports whether graph+(ϕ) is connected. graph+(ϕ) is
// co(I) drawn over variables: one fact per positive atom over that
// atom's variables (constants are not nodes), and the rule is connected
// when those facts form at most one component.
func (r Rule) IsConnected() bool {
	g := fact.NewInstance()
	for _, a := range r.Pos {
		var vars []fact.Value
		for _, t := range a.Args {
			if t.IsVar() {
				vars = append(vars, fact.Value(t.Var))
			}
		}
		if len(vars) > 0 {
			g.Add(fact.New("V", vars...))
		}
	}
	return len(fact.Components(g)) <= 1
}

// IsSemiConnected reports whether P is in semicon-Datalog¬: there is a
// stratification such that all strata except possibly the last are
// connected SP-Datalog programs.
//
// Decision procedure: let U be the head predicates of the disconnected
// rules. In any witnessing stratification these predicates must sit in
// the final stratum. The final stratum is upward closed under positive
// dependency (if R is in the final stratum and R occurs positively in
// the body of a rule with head T, then ρ(T) ≥ ρ(R) forces T there too),
// so compute L = the positive-dependency closure of U. A predicate of L
// can never occur negated in any rule (that would force a strictly
// higher stratum than the maximum). If that holds — and P is
// stratifiable at all — the stratification that runs a canonical
// stratification of the L-free part first and all L-rules as one final
// stratum witnesses semi-connectedness.
func (p *Program) IsSemiConnected() bool {
	if !p.IsStratifiable() {
		return false
	}
	idb := p.IDB()
	closure := p.disconnectedClosure()
	// No predicate of L may occur negated anywhere.
	for _, r := range p.Rules {
		for _, a := range r.Neg {
			if idb.Has(a.Rel) && closure[a.Rel] {
				return false
			}
		}
	}
	return true
}

// disconnectedClosure computes L of IsSemiConnected: the heads of the
// disconnected rules, closed upward under positive occurrence in rule
// bodies.
func (p *Program) disconnectedClosure() map[string]bool {
	closure := make(map[string]bool)
	for _, r := range p.Rules {
		if !r.IsConnected() {
			closure[r.Head.Rel] = true
		}
	}
	for {
		changed := false
		for _, r := range p.Rules {
			if closure[r.Head.Rel] {
				continue
			}
			for _, a := range r.Pos {
				if closure[a.Rel] {
					closure[r.Head.Rel] = true
					changed = true
					break
				}
			}
		}
		if !changed {
			return closure
		}
	}
}

// SemiConnectedStratification returns a stratification witnessing
// semi-connectedness: every stratum except the last consists solely of
// connected rules. It returns ok=false when the program is not
// semi-connected.
func (p *Program) SemiConnectedStratification() (Stratification, bool) {
	if !p.IsSemiConnected() {
		return nil, false
	}
	rho, err := p.Stratify()
	if err != nil {
		return nil, false
	}
	// Push the closure L to a fresh final stratum.
	closure := p.disconnectedClosure()
	if len(closure) == 0 {
		return rho, true
	}
	last := rho.numStrata() + 1
	out := make(Stratification, len(rho))
	for rel, n := range rho {
		if closure[rel] {
			out[rel] = last
		} else {
			out[rel] = n
		}
	}
	return out, true
}

// Fragment names one Datalog fragment of Figure 2.
type Fragment string

// The Datalog fragments of the paper, ordered roughly by
// expressiveness as in Figure 2.
const (
	FragDatalog        Fragment = "Datalog"          // positive, no inequalities
	FragDatalogNeq     Fragment = "Datalog(≠)"       // positive with inequalities
	FragSPDatalog      Fragment = "SP-Datalog"       // negation on edb only
	FragConDatalog     Fragment = "con-Datalog¬"     // stratified, all rules connected
	FragSemiconDatalog Fragment = "semicon-Datalog¬" // stratified, disconnected rules confined to the last stratum
	FragStratified     Fragment = "Datalog¬"         // stratified
	FragUnstratifiable Fragment = "unstratifiable"
)

// fragments lists Figure 2's fragments most specific first, bit i of
// Memberships standing for fragments[i]. SP-Datalog and con-Datalog¬
// are incomparable: between those two the order is a preference.
var fragments = []Fragment{FragDatalog, FragDatalogNeq, FragSPDatalog, FragConDatalog, FragSemiconDatalog, FragStratified}

// Memberships is a set of Figure 2 fragments.
type Memberships uint8

// Has reports whether f is in the set.
func (m Memberships) Has(f Fragment) bool {
	i := slices.Index(fragments, f)
	return i >= 0 && m&(1<<i) != 0
}

// String lists the set's fragments, most specific first.
func (m Memberships) String() string {
	var names []string
	for _, f := range fragments {
		if m.Has(f) {
			names = append(names, string(f))
		}
	}
	return strings.Join(names, ", ")
}

// Memberships returns every fragment of Figure 2 the program
// syntactically belongs to, none if it is unstratifiable. Each rule
// sits in one stratum, so a stratifiable program is in con-Datalog¬
// iff every rule is connected.
func (p *Program) Memberships() Memberships {
	if !p.IsStratifiable() {
		return 0
	}
	pos, neq, con := true, false, true
	for _, r := range p.Rules {
		pos = pos && len(r.Neg) == 0
		neq = neq || len(r.Ineq) > 0
		con = con && r.IsConnected()
	}
	var m Memberships
	for i, in := range []bool{pos && !neq, pos, p.isSemiPositive(), con, p.IsSemiConnected(), true} {
		if in {
			m |= 1 << i
		}
	}
	return m
}

// Classify returns the most specific fragment of Memberships.
func (p *Program) Classify() Fragment {
	if m := p.Memberships(); m != 0 {
		return fragments[bits.TrailingZeros8(uint8(m))]
	}
	return FragUnstratifiable
}
