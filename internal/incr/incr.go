// Package incr implements incremental view maintenance for stratified
// Datalog¬ programs: a Materialization holds a program's full
// stratified fixpoint over a base (edb) instance and keeps it exact
// under streams of base-fact insertions and retractions, without
// recomputing from scratch.
//
// The maintenance algorithm is the classic counting/DRed split,
// aligned with the paper's monotonicity hierarchy:
//
//   - Insertions propagate by semi-naive delta evaluation over the warm
//     materialization — for the monotone fragments (Datalog(≠), and
//     SP-Datalog below the negated strata) this is pure growth, the
//     evaluation-side shadow of the CALM results: no derived fact is
//     ever invalidated, so no coordination (re-examination of past
//     conclusions) is needed. Each new derivation increments a support
//     count on its head fact, attributed exactly once (see apply.go).
//   - Retractions, and insertions into negated relations, run
//     delete–rederive (DRed) on recursive strata: over-delete the cone
//     of facts with a derivation through the changed inputs, then
//     rederive survivors from the remainder. On non-recursive strata
//     the exact support counts shortcut DRed entirely: lost derivations
//     are decremented and a fact dies exactly when its count reaches
//     zero (counting is sound there because support cannot be cyclic).
//
// The maintained materialization is provably equal to full
// recomputation — Verify checks it against EvalStratified, and the
// property tests replay hundreds of seeded mixed update streams in
// both serial and parallel modes.
package incr

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/obs"
)

// Options configures a materialization.
type Options struct {
	// Mode selects the evaluation strategy for delta propagation:
	// SemiNaive (default) runs phases inline; Parallel fans each
	// phase's pinned-join tasks across a worker pool. Naive is not
	// meaningful for incremental maintenance and is rejected.
	Mode datalog.EvalMode
	// Workers sets the pool size for Parallel mode; 0 means GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives incr.* counters and the apply-span
	// histogram (see internal/obs names.go).
	Reg *obs.Registry
	// Sink, when non-nil, receives the deterministic incr.apply /
	// incr.stratum event stream: a pure function of (program, update
	// history), byte-identical across runs and across modes.
	Sink *obs.Sink
}

func (o Options) workers() int {
	if o.Mode != datalog.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
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
// the phases (a fact deleted by DRed and re-added by the insertion
// phase counts in both). Overdeleted/Rederived measure DRed churn;
// Support* count derivation-count updates.
type ApplyStats struct {
	BaseInserted, BaseRetracted  int
	DerivedAdded, DerivedRemoved int
	Overdeleted, Rederived       int
	Recounts                     int
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
	// heads is the set of idb relations defined by this stratum.
	heads map[string]bool
	// posRels / negRels are the relations occurring in positive /
	// negated body atoms of the stratum's rules.
	posRels, negRels map[string]bool
	// recursive reports whether the positive dependency graph among
	// this stratum's head relations has a cycle. Non-recursive strata
	// use exact counting for deletions; recursive strata need DRed.
	recursive bool
}

// Materialization is an incrementally maintained stratified fixpoint:
// base ∪ all facts derivable from it, with a derivation support count
// per derived fact. Not safe for concurrent use; callers serialize
// (cmd/calmd holds a mutex).
type Materialization struct {
	prog        *datalog.Program
	idb         fact.Schema
	schema      fact.Schema
	strata      []stratum
	rulesByHead map[fact.ID][]*datalog.CompiledRule
	hasNeg      bool
	opts        Options
	workers     int

	x    *datalog.IndexedInstance
	base *fact.Instance
	// support maps a derived fact's packed key (Fact.PackedKey — the
	// interned-ID encoding, valid within this process only) to its
	// exact derivation count. Anything persisted (snapshots) stores
	// facts textually, never packed keys.
	support map[string]int64
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
	if opts.Mode == datalog.Naive {
		return nil, fmt.Errorf("incr: naive mode is not meaningful for incremental maintenance; use seminaive or parallel")
	}
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
		prog:        p,
		idb:         p.IDB(),
		schema:      schema,
		rulesByHead: make(map[fact.ID][]*datalog.CompiledRule),
		opts:        opts,
		workers:     opts.workers(),
		x:           datalog.IndexInstance(fact.NewInstance()),
		base:        fact.NewInstance(),
		support:     make(map[string]int64),
		flow:        make(map[string]*flow),
	}
	for _, rules := range p.Strata(rho) {
		m.strata = append(m.strata, newStratum(rules))
	}
	for _, r := range p.Rules {
		head := fact.InternString(r.Head.Rel)
		m.rulesByHead[head] = append(m.rulesByHead[head], datalog.Compile(r))
		if len(r.Neg) > 0 {
			m.hasNeg = true
		}
	}
	return m, nil
}

func newStratum(rules []datalog.Rule) stratum {
	s := stratum{
		rules:   rules,
		heads:   make(map[string]bool),
		posRels: make(map[string]bool),
		negRels: make(map[string]bool),
	}
	for _, r := range rules {
		s.heads[r.Head.Rel] = true
	}
	// adj is the positive dependency graph restricted to the stratum's
	// own head relations; a cycle in it (including a self-loop) makes
	// the stratum recursive.
	adj := make(map[string][]string)
	for _, r := range rules {
		for _, a := range r.Pos {
			s.posRels[a.Rel] = true
			if s.heads[a.Rel] {
				adj[a.Rel] = append(adj[a.Rel], r.Head.Rel)
			}
		}
		for _, a := range r.Neg {
			s.negRels[a.Rel] = true
		}
	}
	s.recursive = hasCycle(adj)
	for _, r := range rules {
		s.crules = append(s.crules, datalog.Compile(r))
		nc := make([]negCompiled, len(r.Neg))
		for k := range r.Neg {
			conv, pin := convertNeg(r, k)
			nc[k] = negCompiled{c: datalog.Compile(conv), pin: pin}
		}
		s.cneg = append(s.cneg, nc)
	}
	return s
}

// negCompiled is one pre-compiled neg-conversion: the rule with its
// k-th negated atom turned positive, and the pin index of that atom.
type negCompiled struct {
	c   *datalog.CompiledRule
	pin int
}

// hasCycle detects a directed cycle via three-color DFS.
func hasCycle(adj map[string][]string) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(string) bool
	visit = func(u string) bool {
		color[u] = gray
		for _, v := range adj[u] {
			switch color[v] {
			case gray:
				return true
			case white:
				if visit(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	nodes := make([]string, 0, len(adj))
	for u := range adj {
		nodes = append(nodes, u)
	}
	sort.Strings(nodes)
	for _, u := range nodes {
		if color[u] == white && visit(u) {
			return true
		}
	}
	return false
}

// Program returns the maintained program.
func (m *Materialization) Program() *datalog.Program { return m.prog }

// Seq returns the number of non-empty Apply calls performed.
func (m *Materialization) Seq() int { return m.seq }

// Len returns the total number of materialized facts (base + derived).
func (m *Materialization) Len() int { return m.x.Len() }

// Has reports whether the fact is materialized.
func (m *Materialization) Has(f fact.Fact) bool { return m.x.Has(f) }

// Rel returns the materialized facts of one relation in sorted order.
func (m *Materialization) Rel(rel string) []fact.Fact {
	fs := m.x.RelList(rel)
	fact.SortFacts(fs)
	return fs
}

// Instance returns an independent copy of the full materialization.
func (m *Materialization) Instance() *fact.Instance { return m.x.Instance() }

// Base returns an independent copy of the base (edb) instance.
func (m *Materialization) Base() *fact.Instance { return m.base.Clone() }

// Support returns the maintained derivation count of a derived fact
// (0 for base or unknown facts).
func (m *Materialization) Support(f fact.Fact) int64 { return m.support[f.PackedKey()] }

// countDerivations counts the derivations of exactly f, over all rules
// for its relation, against the current materialization. The head is
// unified with f on interned IDs, so nothing is built per fact beyond
// the matcher's own setup.
func (m *Materialization) countDerivations(f fact.Fact) (int64, error) {
	var n int64
	for _, c := range m.rulesByHead[f.RelID()] {
		k, err := m.x.CountDerivations(c, f)
		if err != nil {
			return 0, err
		}
		n += k
	}
	return n, nil
}

// derivable reports whether f has at least one derivation against the
// current materialization, stopping at the first witness.
func (m *Materialization) derivable(f fact.Fact) (bool, error) {
	for _, c := range m.rulesByHead[f.RelID()] {
		if ok, err := m.x.Derivable(c, f); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// Verify checks the materialization against full recomputation: the
// fact set must equal EvalStratified(base) and every derived fact's
// support count must equal its derivation count. It is O(full
// evaluation) and meant for tests, snapshots audits, and debugging.
func (m *Materialization) Verify() error {
	if m.corrupt != nil {
		return m.corrupt
	}
	want, err := m.prog.EvalStratified(m.base, datalog.FixpointOptions{Mode: datalog.SemiNaive})
	if err != nil {
		return fmt.Errorf("incr: verify recomputation: %w", err)
	}
	got := m.x.Instance()
	if !got.Equal(want) {
		return fmt.Errorf("incr: materialization diverged from recomputation:\nextra:   %v\nmissing: %v",
			got.Minus(want), want.Minus(got))
	}
	derived := 0
	for _, f := range got.Facts() {
		if m.base.Has(f) {
			if _, ok := m.support[f.PackedKey()]; ok {
				return fmt.Errorf("incr: base fact %v has a support entry", f)
			}
			continue
		}
		derived++
		n, err := m.countDerivations(f)
		if err != nil {
			return err
		}
		if have := m.support[f.PackedKey()]; have != n {
			return fmt.Errorf("incr: support count for %v is %d, want %d", f, have, n)
		}
		if n <= 0 {
			return fmt.Errorf("incr: materialized fact %v has no derivation", f)
		}
	}
	if len(m.support) != derived {
		return fmt.Errorf("incr: %d support entries for %d derived facts", len(m.support), derived)
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
	if ar, ok := schema.Arity(f.Rel()); ok && ar != f.Arity() {
		return fmt.Errorf("incr: %v has arity %d, program uses %s with arity %d", f, f.Arity(), f.Rel(), ar)
	}
	for i := 0; i < f.Arity(); i++ {
		if strings.ContainsRune(string(f.Arg(i)), 0) {
			return fmt.Errorf("incr: %v contains a NUL byte", f)
		}
	}
	return nil
}
