// Package incr implements incremental view maintenance for stratified
// Datalog¬ programs: a Materialization holds a program's full
// stratified fixpoint over a base (edb) instance and keeps it exact
// under streams of base-fact insertions and retractions, without
// recomputing from scratch.
//
// The maintenance algorithm is counting with a well-founded witness
// check, aligned with the paper's monotonicity hierarchy:
//
//   - Insertions propagate by semi-naive delta evaluation over the warm
//     materialization — for the monotone fragments (Datalog(≠), and
//     SP-Datalog below the negated strata) this is pure growth, the
//     evaluation-side shadow of the CALM results: no derived fact is
//     ever invalidated, so no coordination (re-examination of past
//     conclusions) is needed. Each new derivation increments a support
//     count on its head fact, attributed exactly once (see apply.go),
//     and a new fact takes the tick of the wave it entered in as its
//     rank. Count and rank are the fact's row's datalog.Support record.
//   - Retractions, and insertions into negated relations, decrement:
//     each lost derivation is attributed exactly once and a fact dies
//     when its count reaches zero. Where support can be cyclic — a fact
//     of a recursive component — a positive count proves nothing, so a
//     fact the cascade reaches must also keep a derivation resting,
//     inside its component, only on facts of smaller rank; one that
//     does not is deleted and, if its count stayed positive, comes back
//     with the insertion phase (delete–rederive, confined to the facts
//     that fail the check).
//
// The maintained materialization is provably equal to full
// recomputation — Verify checks it against EvalStratified, and the
// property tests replay hundreds of seeded mixed update streams. An
// apply runs on the caller's goroutine: the cone of a write is a couple
// of facts, far below what a fan-out would repay (DESIGN.md §6).
package incr

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/obs"
)

// Options configures a materialization.
type Options struct {
	// Reg, when non-nil, receives incr.* counters and the apply-span
	// histogram (see internal/obs names.go).
	Reg *obs.Registry
	// Tracer, when non-nil, receives the deterministic incr.apply /
	// incr.stratum event stream: a pure function of (program, update
	// history), byte-identical across runs.
	Tracer *obs.Tracer
}

// Delta is one batch of base-instance changes: facts to insert and
// facts to retract, all over edb relations of the program (or
// relations unknown to it, which pass through untouched). A fact
// appearing in both sets is rejected as ambiguous.
type Delta struct {
	Insert  []fact.Fact
	Retract []fact.Fact
}

// ApplyStats reports the work one Apply performed. Base* count the
// netted edb changes; Derived* count derived facts added/removed by
// the apply, net (a fact the deletion phase removes and the insertion
// phase restores counts in neither). Overdeleted counts the facts
// removed by deletion phases that reached a recursive component, where
// a removal is provisional; Rederived the facts a deletion phase
// removed and the insertion phase of the same stratum brought back;
// Kept the facts the deletion phases reached and the witness check
// spared; Support* count derivation-count updates.
type ApplyStats struct {
	BaseInserted, BaseRetracted  int
	DerivedAdded, DerivedRemoved int
	Overdeleted, Rederived, Kept int
	SupportIncrements            int64
	SupportDecrements            int64
}

// stratum is one stratum of the program with the precomputed
// structure the phases consult.
type stratum struct {
	rules []datalog.Rule
	// crules[i] is rules[i] pre-compiled; cneg[i][k] is the
	// neg-conversion convertNeg(rules[i], k) pre-compiled with its pin.
	// Compilation is per-program setup — the apply phases evaluate
	// these on every delta and must not recompile per call.
	crules []*datalog.CompiledRule
	cneg   [][]negCompiled
	// pos[i][j] and neg[i][k] are the relations of rules[i]'s positive
	// atom j and negated atom k, by id, which a phase pins by.
	pos, neg [][]fact.ID
}

// headRule is one rule as the witness check and Verify enumerate it,
// head bound: ranked[j] reports whether positive atom j is over the
// head's own recursive component — the head relation reaches the
// atom's in the positive dependency graph — so that the body fact must
// rank below the head.
type headRule struct {
	c      *datalog.CompiledRule
	nneg   int
	ranked []bool // one per positive atom
}

// headRules are the rules defining one relation and its arity;
// recursive reports whether any of them has a ranked atom, which is
// when a positive count does not prove a fact.
type headRules struct {
	rules     []headRule
	arity     int
	recursive bool
}

// Materialization is an incrementally maintained stratified fixpoint:
// base ∪ all facts derivable from it, with a derivation support count
// per derived fact. Not safe for concurrent use; callers serialize
// (cmd/calmd holds a mutex).
type Materialization struct {
	prog   *datalog.Program
	idb    fact.Schema
	schema fact.Schema
	strata []stratum
	byHead map[fact.ID]*headRules
	hasNeg bool
	opts   Options

	// x is the one store of the materialized facts. Its facts over idb
	// relations are the derived facts; the others are the base (edb),
	// since a delta never holds an idb fact and every derived fact is an
	// idb head. A derived fact's row carries its record (rec); a base
	// fact's record stays zero.
	x *datalog.IndexedInstance
	// clock ticks once per insertion wave; the facts a wave adds take
	// the tick as their rank.
	clock   uint32
	seq     int
	corrupt error

	// runs is the last published epoch's run per relation, nil before
	// the first Epoch(); flow is what each gained and lost since.
	runs map[string]*run
	flow map[string]*flow
}

// New builds a materialization of the program over the initial base
// instance (nil means empty) by running the insertion path from
// scratch — the initial fixpoint is itself an incremental apply onto
// an empty materialization.
func New(p *datalog.Program, initial *fact.Instance, opts Options) (*Materialization, error) {
	m, err := newEmpty(p, opts)
	if err != nil {
		return nil, err
	}
	if initial != nil && !initial.Empty() {
		if _, err := m.Apply(Delta{Insert: initial.Facts()}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newEmpty builds the static program structure with an empty base.
func newEmpty(p *datalog.Program, opts Options) (*Materialization, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rho, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	schema, err := p.Schema()
	if err != nil {
		return nil, err
	}
	m := &Materialization{
		prog:   p,
		idb:    p.IDB(),
		schema: schema,
		byHead: make(map[fact.ID]*headRules),
		opts:   opts,
		x:      datalog.IndexInstance(fact.NewInstance()),
		flow:   make(map[string]*flow),
	}
	// adj is the positive dependency graph, body relation → head
	// relation, by relation id.
	adj := make(map[fact.ID][]fact.ID)
	for _, r := range p.Rules {
		for _, b := range atomRels(r.Pos) {
			adj[b] = append(adj[b], fact.InternString(r.Head.Rel))
		}
	}
	for _, rules := range p.Strata(rho) {
		s := newStratum(rules)
		for ri, r := range rules {
			id := fact.InternString(r.Head.Rel)
			h := m.byHead[id]
			if h == nil {
				h = &headRules{arity: len(r.Head.Args)}
				m.byHead[id] = h
			}
			hr := headRule{c: s.crules[ri], nneg: len(r.Neg), ranked: make([]bool, len(r.Pos))}
			for j, b := range s.pos[ri] {
				hr.ranked[j] = reaches(adj, id, b)
				h.recursive = h.recursive || hr.ranked[j]
			}
			h.rules = append(h.rules, hr)
			m.hasNeg = m.hasNeg || len(r.Neg) > 0
		}
		m.strata = append(m.strata, s)
	}
	return m, nil
}

func newStratum(rules []datalog.Rule) stratum {
	s := stratum{rules: rules}
	for _, r := range rules {
		s.crules = append(s.crules, datalog.Compile(r))
		nc := make([]negCompiled, len(r.Neg))
		for k := range r.Neg {
			conv, pin := convertNeg(r, k)
			nc[k] = negCompiled{c: datalog.Compile(conv), pin: pin}
		}
		s.cneg = append(s.cneg, nc)
		s.pos = append(s.pos, atomRels(r.Pos))
		s.neg = append(s.neg, atomRels(r.Neg))
	}
	return s
}

// atomRels returns the atoms' relations as interned ids.
func atomRels(atoms []datalog.Atom) []fact.ID {
	ids := make([]fact.ID, len(atoms))
	for i, a := range atoms {
		ids[i] = fact.InternString(a.Rel)
	}
	return ids
}

// negCompiled is one pre-compiled neg-conversion: the rule with its
// k-th negated atom turned positive, and the pin index of that atom.
type negCompiled struct {
	c   *datalog.CompiledRule
	pin int
}

// reaches reports whether the graph has a path, possibly empty, from
// one relation to the other.
func reaches(adj map[fact.ID][]fact.ID, from, to fact.ID) bool {
	seen := map[fact.ID]bool{from: true}
	for stack := []fact.ID{from}; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == to {
			return true
		}
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// Seq returns the number of non-empty Apply calls performed.
func (m *Materialization) Seq() int { return m.seq }

// Len returns the total number of materialized facts (base + derived).
func (m *Materialization) Len() int { return m.x.Len() }

// Has reports whether the fact is materialized.
func (m *Materialization) Has(f fact.Fact) bool { return m.x.Has(f) }

// Instance returns an independent copy of the full materialization.
func (m *Materialization) Instance() *fact.Instance { return m.x.Instance() }

// Base returns an independent copy of the base (edb) instance: the
// materialized facts over relations the program does not derive.
func (m *Materialization) Base() *fact.Instance {
	b := fact.NewInstance()
	for _, rel := range m.x.Rels() {
		if !m.idb.Has(rel) {
			for _, f := range m.x.RelList(rel) {
				b.Add(f)
			}
		}
	}
	return b
}

// rec returns the record of f's row, nil when f has no row; only the
// first call on a table allocates (its column). A derived fact's
// record holds its exact derivation count and its rank, the clock tick
// of the insertion wave it entered in. By semi-naive construction a
// fact has a derivation whose body facts over its own recursive
// component all rank lower. Rank 0 is no rank (a snapshot line without
// one, or a clock that ran out). A fact removed in the apply under way
// keeps its row, and its record, until the next apply's Freeze. The
// pointer is valid until the next Add.
func (m *Materialization) rec(f fact.Fact) *datalog.Support {
	return m.x.Support(f.RelID(), f.ArgIDs())
}

// tick advances the clock and returns the rank of the wave it starts.
// When 32 bits of ranks run out every fact goes unranked — sound, since
// an unranked fact is never spared, only over-deleted and ranked again
// on its way back — and the clock starts over above them.
func (m *Materialization) tick() uint32 {
	if m.clock == math.MaxUint32 {
		for id := range m.byHead {
			for _, f := range m.x.RelList(string(fact.Symbol(id))) {
				m.rec(f).Rank = 0
			}
		}
		m.clock = 0
	}
	m.clock++
	return m.clock
}

var errWitness = errors.New("incr: witness found")

// witnessed reports whether f, of the given rank, has a derivation in
// the view that none of the gone facts and none of the blocked negated
// atoms touch and whose body facts over f's own recursive component
// all rank below f. A fact so witnessed is derivable from the facts of
// smaller rank that are left, so by induction on rank it needs no
// cyclic support; an unranked fact is never witnessed.
func (m *Materialization) witnessed(view *datalog.IndexedInstance, f fact.Fact, rank uint32, gone, blocked *fact.Instance) (bool, error) {
	if rank == 0 {
		return false, nil
	}
	for _, hr := range m.byHead[f.RelID()].rules {
		err := view.Valuations(hr.c, -1, nil, &f, func(v *datalog.Valuation) error {
			for k := 0; blocked != nil && k < hr.nneg; k++ {
				if blocked.HasIDs(v.Neg(k)) {
					return nil
				}
			}
			for j, ranked := range hr.ranked {
				rel, args := v.Pos(j)
				if gone != nil && gone.HasIDs(rel, args) || ranked && m.x.Support(rel, args).Rank >= rank {
					return nil
				}
			}
			return errWitness
		})
		if err == errWitness {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// Verify checks the materialization against full recomputation: the
// fact set must equal EvalStratified(base), every derived fact's
// support count must equal its derivation count, and every ranked fact
// must have the derivation over lower ranks that its rank promises. It
// is O(full evaluation) and meant for tests, snapshots audits, and
// debugging.
func (m *Materialization) Verify() error {
	if m.corrupt != nil {
		return m.corrupt
	}
	want, err := m.prog.EvalStratified(m.Base(), datalog.FixpointOptions{Mode: datalog.SemiNaive})
	if err != nil {
		return fmt.Errorf("incr: verify recomputation: %w", err)
	}
	got := m.x.Instance()
	if !got.Equal(want) {
		return fmt.Errorf("incr: materialization diverged from recomputation:\nextra:   %v\nmissing: %v",
			got.Minus(want), want.Minus(got))
	}
	for _, f := range got.Facts() {
		d := m.rec(f)
		if !m.idb.Has(f.Rel()) {
			if *d != (datalog.Support{}) {
				return fmt.Errorf("incr: base fact %v carries support %+v", f, *d)
			}
			continue
		}
		var n int64
		for _, hr := range m.byHead[f.RelID()].rules {
			k, err := m.x.CountDerivations(hr.c, f)
			if err != nil {
				return err
			}
			n += k
		}
		if int64(d.N) != n {
			return fmt.Errorf("incr: support count for %v is %d, want %d", f, d.N, n)
		}
		if n <= 0 {
			return fmt.Errorf("incr: materialized fact %v has no derivation", f)
		}
		if d.Rank > m.clock {
			return fmt.Errorf("incr: %v has rank %d, the clock reads %d", f, d.Rank, m.clock)
		}
		if d.Rank > 0 {
			if ok, err := m.witnessed(m.x, f, d.Rank, nil, nil); err != nil {
				return err
			} else if !ok {
				return fmt.Errorf("incr: %v has rank %d but no derivation over lower ranks", f, d.Rank)
			}
		}
	}
	return nil
}

// checkBaseFact validates a delta fact: it must not be over an idb
// relation, must match the program schema's arity when the relation is
// known, and must not contain NUL bytes (which would break key
// encoding).
func checkBaseFact(idb, schema fact.Schema, f fact.Fact) error {
	if idb.Has(f.Rel()) {
		return fmt.Errorf("incr: %v is over derived relation %s; deltas must change base relations only", f, f.Rel())
	}
	if err := checkArity(schema, f); err != nil {
		return err
	}
	for i := 0; i < f.Arity(); i++ {
		if strings.ContainsRune(string(f.Arg(i)), 0) {
			return fmt.Errorf("incr: %v contains a NUL byte", f)
		}
	}
	return nil
}

// checkArity refuses a fact whose relation the schema knows at another
// arity: the rule for base facts and for a snapshot's derived lines.
func checkArity(schema fact.Schema, f fact.Fact) error {
	if ar, ok := schema.Arity(f.Rel()); ok && ar != f.Arity() {
		return fmt.Errorf("incr: %v has arity %d, program uses %s with arity %d", f, f.Arity(), f.Rel(), ar)
	}
	return nil
}
