package datalog

import (
	"fmt"
	"slices"

	"repro/internal/fact"
)

// This file is the one surface through which code outside the package
// enumerates a rule body: Compile a rule once, then call
// IndexedInstance.Valuations with a callback that reads the matcher's
// live slot environment through a Valuation — ground atoms as
// interned IDs. The delta discipline (one positive atom pinned to a
// set of facts) and head-bound enumeration (derivations of one given
// fact) are arguments of that call; CountDerivations is its thin form.
// Everything here reads the IndexedInstance only; mutation stays with
// Add and Remove.

// Valuation is one satisfying valuation of a compiled rule, exposed to
// Valuations callbacks. It is a view into the matcher's live slot
// environment, valid only for the duration of the callback. Its atoms
// come out ground as interned ids, a relation and an argument tuple,
// and the tuples Head, Pos and Neg return share one scratch slice: each
// call invalidates the previous result.
type Valuation struct {
	cr   *cRule
	env  []fact.ID
	args []fact.ID
	buf  [4]fact.ID // args' first storage, enough up to arity 4
}

// ground grounds a compiled atom under the environment into the
// scratch tuple.
func (v *Valuation) ground(a cAtom) (fact.ID, []fact.ID) {
	v.args = v.args[:0]
	for _, t := range a.terms {
		v.args = append(v.args, termID(t, v.env))
	}
	return a.rel, v.args
}

// Head returns the valuation's ground head: its relation and its
// arguments, valid until the next Head, Pos or Neg call.
func (v *Valuation) Head() (fact.ID, []fact.ID, error) {
	n := len(v.cr.head.terms)
	v.args = slices.Grow(v.args[:0], n)[:n]
	if err := v.cr.groundHead(v.env, v.args); err != nil {
		return fact.NoID, nil, err
	}
	return v.cr.head.rel, v.args, nil
}

// Pos returns positive body atom k grounded under the valuation, valid
// until the next Head, Pos or Neg call.
func (v *Valuation) Pos(k int) (fact.ID, []fact.ID) { return v.ground(v.cr.pos[k]) }

// Neg returns negated body atom k grounded under the valuation, valid
// until the next Head, Pos or Neg call.
func (v *Valuation) Neg(k int) (fact.ID, []fact.ID) { return v.ground(v.cr.neg[k]) }

// CompiledRule is a rule pre-compiled to the matcher's slot/ID form.
// Compiling is pure per-rule setup (interning, slot numbering); a
// maintenance engine evaluating the same rules on every delta
// compiles once and reuses the result. A CompiledRule is immutable
// and safe to share across goroutines.
type CompiledRule struct{ cr cRule }

// Compile pre-compiles a rule for Valuations and CountDerivations. It
// does not validate: an unsafe rule compiles, and its unbound variables
// surface as errors from the enumeration.
func Compile(r Rule) *CompiledRule {
	return &CompiledRule{cr: compileRule(r)}
}

// Valuations enumerates the satisfying valuations of the compiled rule
// (Section 2) against the indexed instance: every positive atom joined
// against it and the guards (negation, inequalities) checked against
// it. emit receives a live Valuation — its ground atoms and the
// environment are only valid during the call — and a non-nil error
// from emit stops the enumeration and is returned.
//
// pin >= 0 makes the positive atom at that index range over pinned's
// facts of its relation and arity instead (facts that need not be
// present in the instance; none, for a nil set); pin = -1 joins every
// atom against the instance. head, when non-nil, restricts the
// enumeration to the derivations of exactly that fact: the rule's head
// is unified with it on interned IDs first, and a fact the head cannot
// produce has no valuations.
//
// Neither the instance nor pinned may be mutated while the call runs;
// concurrent calls over the same instance are safe.
func (x *IndexedInstance) Valuations(c *CompiledRule, pin int, pinned *fact.Instance, head *fact.Fact, emit func(v *Valuation) error) error {
	cr := &c.cr
	if pin < -1 || pin >= len(cr.pos) {
		return fmt.Errorf("datalog: pin %d out of range for %d positive atoms", pin, len(cr.pos))
	}
	var cand cands
	if pin >= 0 {
		if a := cr.pos[pin]; pinned != nil {
			cand = cands{rows: pinned.Rows(a.rel, len(a.terms)), n: pinned.Count(a.rel, len(a.terms))}
		}
		if cand.n == 0 {
			return nil
		}
	}
	var init []fact.ID
	if head != nil {
		var ok bool
		if init, ok = cr.unifyHead(*head); !ok {
			return nil
		}
	}
	val := &Valuation{cr: cr}
	val.args = val.buf[:0]
	return cr.match(x, init, pin, cand, nil, func(env []fact.ID) error {
		val.env = env
		return emit(val)
	})
}

// CountDerivations returns the number of derivations of f through the
// rule: the satisfying valuations whose head is f.
func (x *IndexedInstance) CountDerivations(c *CompiledRule, f fact.Fact) (int64, error) {
	var n int64
	if err := x.Valuations(c, -1, nil, &f, func(*Valuation) error {
		n++
		return nil
	}); err != nil {
		return 0, err
	}
	return n, nil
}
