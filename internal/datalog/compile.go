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
// at the version x reads, and calls yield for each. env is the
// environment, one slot a variable, the enumeration binds in place: its
// bound slots (from unifyHead; NoID means unbound) restrict the
// enumeration to environments extending them. The environment passed
// to yield is env itself, live — callers needing to retain values must
// copy.
//
// If pin >= 0, the positive atom at that index is matched first and
// ranges over pinned — a chunk of its table's rows, or a set's rows of
// its relation — instead of the index: this implements both the
// semi-naive delta discipline and the parallel engine's work
// partitioning.
//
// The remaining atoms are ordered by selectivity exactly as the
// string-based matcher did: at each step the unmatched atom with the
// fewest candidate facts under the current environment is matched
// next. scanned, when non-nil, accumulates the number of candidate
// facts iterated. The enumeration's own state lives on the caller's
// stack for rules of up to eight positive atoms and negated arity
// eight, so match allocates nothing itself.
func (cr *cRule) match(x *IndexedInstance, env []fact.ID, pin int, pinned cands, scanned *int64, yield func(env []fact.ID) error) error {
	var atoms [8]posAtom
	var guard [8]fact.ID
	m := matcher{cr: cr, x: x, at: x.version(), pin: pin, pinned: pinned}
	if n := len(cr.pos); n <= len(atoms) {
		m.atoms = atoms[:n]
	} else {
		m.atoms = make([]posAtom, n)
	}
	if cr.negArity <= len(guard) {
		m.guard = guard[:0]
	} else {
		m.guard = make([]fact.ID, 0, cr.negArity)
	}
	// Each positive atom's table, resolved once for the whole
	// enumeration (nothing mutates what it reads during it).
	for j, a := range cr.pos {
		m.atoms[j].t = x.idx.table(a.rel, len(a.terms))
	}
	err := m.rec(0, env, yield)
	if scanned != nil {
		*scanned += m.scanned
	}
	return err
}

// matcher is one match call's enumeration state.
type matcher struct {
	cr      *cRule
	x       *IndexedInstance
	at      uint64
	atoms   []posAtom // per positive atom: its table, and whether it is matched
	pin     int
	pinned  cands
	guard   []fact.ID // checkGuards' grounding scratch
	scanned int64
}

// rec matches the positive atoms not yet matched at depth and below,
// binding env, then checks the guards and yields. env and yield are not
// kept in m: what reaches yield leaks, and m's arrays, and what yield
// captures, must not.
func (m *matcher) rec(depth int, env []fact.ID, yield func(env []fact.ID) error) error {
	cr := m.cr
	n := len(cr.pos)
	if depth == n {
		ok, err := cr.checkGuards(env, m.x, m.guard)
		if err != nil || !ok {
			return err
		}
		return yield(env)
	}
	// Pick the next atom: the pinned atom first, then greedily the
	// most selective remaining one.
	var k int
	var cand cands
	if depth == 0 && m.pin >= 0 {
		k, cand = m.pin, m.pinned
	} else {
		k = -1
		for j := 0; j < n; j++ {
			if m.atoms[j].used {
				continue
			}
			c := candidatesC(cr.pos[j], m.atoms[j].t, env)
			if k < 0 || c.n < cand.n {
				k, cand = j, c
				if cand.n == 0 {
					break
				}
			}
		}
	}
	m.atoms[k].used = true
	m.scanned += int64(cand.n)
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
			if !cand.t.sees(int32(id), m.at) {
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
			if err := m.rec(depth+1, env, yield); err != nil {
				m.atoms[k].used = false
				return err
			}
		}
		for _, s := range added {
			env[s] = fact.NoID
		}
	}
	m.atoms[k].used = false
	return nil
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
// round executors test membership and reserve or buffer the new heads'
// IDs from it without ever materializing a Fact. The environment and
// the head tuple are one allocation.
func evalRuleC(cr *cRule, x *IndexedInstance, pin int, pinned cands, scanned *int64, emit func(rel fact.ID, args []fact.ID) error) error {
	nv := len(cr.vars)
	env := make([]fact.ID, nv+len(cr.head.terms))
	env, head := env[:nv:nv], env[nv:]
	clearEnv(env)
	return cr.match(x, env, pin, pinned, scanned, func(env []fact.ID) error {
		if err := cr.groundHead(env, head); err != nil {
			return err
		}
		if cr.hook != nil {
			cr.hook(head)
		}
		return emit(cr.head.rel, head)
	})
}

// clearEnv unbinds every slot of env.
func clearEnv(env []fact.ID) {
	for i := range env {
		env[i] = fact.NoID
	}
}

// unifyHead unifies the rule's head with the fact in ID space, binding
// env, an environment of cr with every slot unbound, to what every
// derivation of exactly that fact must extend. It reports false when
// relation, arity or a constant differs, or a repeated head variable
// would take two values.
func (cr *cRule) unifyHead(f fact.Fact, env []fact.ID) bool {
	args := f.ArgIDs()
	if f.RelID() != cr.head.rel || len(args) != len(cr.head.terms) {
		return false
	}
	for i, t := range cr.head.terms {
		switch {
		case t.slot < 0:
			if t.cnst != args[i] {
				return false
			}
		case env[t.slot] == fact.NoID:
			env[t.slot] = args[i]
		case env[t.slot] != args[i]:
			return false
		}
	}
	return true
}
