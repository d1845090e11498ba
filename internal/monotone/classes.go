package monotone

import (
	"fmt"

	"repro/internal/fact"
)

// Kind selects which restriction the added instance J must satisfy
// relative to I in the monotonicity condition Q(I) ⊆ Q(I ∪ J)
// (Definition 1).
type Kind int

const (
	// Any places no restriction on J: plain monotonicity (class M).
	Any Kind = iota
	// Distinct requires J to be domain distinct from I (Mdistinct).
	Distinct
	// Disjoint requires J to be domain disjoint from I (Mdisjoint).
	Disjoint
)

// Class identifies one of the paper's monotonicity classes: a Kind
// plus an optional bound i on |J| (0 = unbounded). For example,
// Class{Distinct, 2} is M²distinct.
type Class struct {
	Kind  Kind
	Bound int
}

// The unbounded classes of Definition 1.
var (
	M         = Class{Any, 0}
	MDistinct = Class{Distinct, 0}
	MDisjoint = Class{Disjoint, 0}
)

// Mi returns the bounded class Mⁱ.
func Mi(i int) Class { return Class{Any, i} }

// MiDistinct returns the bounded class Mⁱdistinct.
func MiDistinct(i int) Class { return Class{Distinct, i} }

// MiDisjoint returns the bounded class Mⁱdisjoint.
func MiDisjoint(i int) Class { return Class{Disjoint, i} }

// Allows reports whether the pair (I, J) is within the scope of the
// class's monotonicity condition, I given by its probe (I.Known()): J
// keeps the size bound and grows adom(I) as the kind asks.
func (c Class) Allows(j *fact.Instance, known func(fact.ID) bool) bool {
	return (c.Bound == 0 || j.Len() <= c.Bound) && growth(j, known) >= c.Kind
}

// growth returns the widest kind J satisfies against the probe of I
// (Section 3.1): Disjoint when every fact of J is all fresh, Distinct
// when every fact has a fresh value, else Any. A fact has a value
// (fact.New panics on a nullary one), so all fresh implies some fresh,
// and the kinds are totally ordered.
func growth(j *fact.Instance, known func(fact.ID) bool) Kind {
	k := Disjoint
	j.EachIDs(func(rel fact.ID, args []fact.ID) bool {
		k = min(k, factGrowth(fact.Alias(rel, args), known))
		return k > Any
	})
	return k
}

// factGrowth is growth of the one-fact instance {f}.
func factGrowth(f fact.Fact, known func(fact.ID) bool) Kind {
	switch fresh := fact.Fresh(f, known); {
	case fresh == 0:
		return Any
	case fresh < f.Arity():
		return Distinct
	}
	return Disjoint
}

// Implies reports whether membership in class c implies membership in
// class d, purely by the inclusion structure of the conditions: a
// query monotone under a *larger* family of pairs is monotone under
// any subfamily. c implies d iff every pair allowed by d is allowed
// by c.
func (c Class) Implies(d Class) bool {
	// Kind scope: Any ⊇ Distinct ⊇ Disjoint.
	kindWider := c.Kind <= d.Kind
	// Bound scope: unbounded (0) ⊇ any bound; larger bound ⊇ smaller.
	boundWider := c.Bound == 0 || (d.Bound != 0 && c.Bound >= d.Bound)
	return kindWider && boundWider
}

// String names the class in the paper's notation.
func (c Class) String() string {
	base := "M"
	sup := ""
	if c.Bound > 0 {
		sup = fmt.Sprintf("^%d", c.Bound)
	}
	switch c.Kind {
	case Any:
		return base + sup
	case Distinct:
		return base + sup + "_distinct"
	case Disjoint:
		return base + sup + "_disjoint"
	default:
		return fmt.Sprintf("M?(kind=%d)", c.Kind)
	}
}
