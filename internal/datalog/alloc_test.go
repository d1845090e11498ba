package datalog

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
)

// Allocation regression tests for the interned/columnar hot path: the
// compiled matcher joins on integer slots and deduplicates against
// packed id tuples, so evaluating a rule must allocate only its fixed
// per-call scratch (environment and head tuple, one object) — nothing
// per candidate fact and nothing per duplicate derivation. The tests pin that down
// two ways: the total for a full pass stays inside a small fixed
// budget, and it does not grow with the instance (zero marginal
// allocation per candidate/duplicate).

// allocProgram exercises both dedup key shapes: T is arity 2 (the
// packed tuple is its key), P is arity 3 (a hashed key, confirmed by
// the row it names).
const allocProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
P(x,y,z) :- E(x,y), T(y,z).
`

// dedupPassAllocs measures allocations for one full evaluation pass of
// every rule over an instance already at fixpoint: every emitted head
// is a duplicate, checked through the same hasIDs membership the round
// executors use.
func dedupPassAllocs(t *testing.T, n int) float64 {
	t.Helper()
	prog := MustParseProgram(allocProgram)
	out, err := prog.Fixpoint(generate.Path("v", n), FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := IndexInstance(out)
	crs := compileRules(prog.Rules)
	novel := false
	emit := func(rel fact.ID, args []fact.ID) error {
		if !x.hasIDs(rel, args) {
			novel = true
		}
		return nil
	}
	avg := testing.AllocsPerRun(20, func() {
		for i := range crs {
			if err := evalRuleC(&crs[i], x, -1, cands{}, nil, emit); err != nil {
				panic(err)
			}
		}
	})
	if novel {
		t.Fatal("matcher emitted a novel head at fixpoint")
	}
	return avg
}

// TestDedupHotPathAllocs asserts the duplicate-derivation path is
// allocation-free: a full pass allocates a small fixed amount of
// per-rule scratch, and the amount is identical for a 12-node and a
// 72-node chain even though the large one scans ~40x the candidates.
func TestDedupHotPathAllocs(t *testing.T) {
	small := dedupPassAllocs(t, 12)
	large := dedupPassAllocs(t, 72)
	if small != large {
		t.Errorf("full-pass allocations grow with instance size: %v (n=12) vs %v (n=72); the per-candidate path allocates", small, large)
	}
	// Measured: 3 (3 rules × one per-call scratch, the environment and
	// head tuple together; the matcher's state is on the stack); 9 when
	// the environment, the used flags, the head tuple and the matcher's
	// recursive closure were each allocated. Anything per-candidate
	// blows well past this.
	const budget = 3
	if small > budget {
		t.Errorf("full dedup pass allocated %v objects, budget %d", small, budget)
	}
}

// TestFixpointAllocsPerDerivedFact bounds the whole engine: a
// semi-naive fixpoint run may allocate only a fixed small number of
// objects, and of heap bytes, per derived fact (row growth, and list
// growth at the positions a round probes; a round's delta is a row
// range, never a list of Facts). Measured: 0.13 objects and 102 B with
// a round's heads inserted as its tasks derive them and the matcher's
// state on the stack; 0.20 and 104 B when every head was buffered for
// the barrier to insert and every match call allocated its state; 0.70
// and 142 B with stamps and posting lists made only for their readers;
// 1.12 and 237 B when every row was stamped and listed at every
// position; 4.00 objects when each round's delta was materialized as
// sorted Facts, re-inserted and the result copied out. A regression that
// reintroduces per-candidate string keys, boxed tuples, a Fact per
// derived head or a structure no reader asked for breaks a budget.
func TestFixpointAllocsPerDerivedFact(t *testing.T) {
	prog := MustParseProgram(allocProgram)
	in := generate.Path("v", 64)
	out, err := prog.Fixpoint(in, FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	derived := out.Len() - in.Len()
	if derived < 1000 {
		t.Fatalf("test instance too small: %d derived facts", derived)
	}
	run := func() {
		if _, err := prog.Fixpoint(in, FixpointOptions{}); err != nil {
			panic(err)
		}
	}
	perFact := testing.AllocsPerRun(5, run) / float64(derived)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPerFact := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(derived)
	t.Logf("%.2f objects and %.0f heap bytes per derived fact (%d derived)", perFact, bytesPerFact, derived)
	const budget, bytesBudget = 0.16, 123.0 // the measured figures plus 20%
	if perFact > budget {
		t.Errorf("fixpoint allocates %.2f objects per derived fact (%d derived), budget %.2f (measured 0.13; 0.20 with every head buffered for the barrier)", perFact, derived, budget)
	}
	if bytesPerFact > bytesBudget {
		t.Errorf("fixpoint allocates %.0f heap bytes per derived fact (%d derived), budget %.0f (measured 102; 104 with every head buffered for the barrier)", bytesPerFact, derived, bytesBudget)
	}
}

// recountAllocs measures one head-bound recount — the per-fact step of
// incr's DRed support recount — of a fact with n-2 derivations over an
// n-node chain at fixpoint.
func recountAllocs(t *testing.T, n int) float64 {
	t.Helper()
	prog := MustParseProgram(allocProgram)
	out, err := prog.Fixpoint(generate.Path("v", n), FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := IndexInstance(out)
	c := Compile(prog.Rules[2]) // P(x,y,z) :- E(x,y), T(y,z).
	var f fact.Fact
	for _, g := range out.Rel("P") {
		f = g
	}
	if k, err := x.CountDerivations(c, f); err != nil || k != 1 {
		t.Fatalf("CountDerivations(%v) = %d, %v; want 1", f, k, err)
	}
	t2 := Compile(prog.Rules[1]) // T(x,y) :- E(x,z), T(z,y).
	return testing.AllocsPerRun(50, func() {
		if _, err := x.CountDerivations(c, f); err != nil {
			panic(err)
		}
		if _, err := x.CountDerivations(t2, f); err != nil { // relation mismatch: nothing to set up
			panic(err)
		}
	})
}

// TestRecountAllocs pins the head-bound path to the matcher's fixed
// setup: unifying the head with the fact happens on interned IDs in the
// matcher's own environment, so recounting a fact builds no map, no
// string and nothing per variable or per candidate.
func TestRecountAllocs(t *testing.T) {
	small := recountAllocs(t, 12)
	large := recountAllocs(t, 72)
	if small != large {
		t.Errorf("recount allocations grow with instance size: %v (n=12) vs %v (n=72)", small, large)
	}
	// Measured: 1, the Valuation, which holds the environment; the
	// relation mismatch allocates nothing. 3 when the matcher allocated
	// its environment, used flags and recursive closure; seeding the
	// same recount from a name-keyed map of values measured 5.
	const budget = 1
	if small > budget {
		t.Errorf("one recount allocated %v objects, budget %d", small, budget)
	}
}

// TestValuationsAllocs pins a Valuations call to one object, its
// Valuation, which holds the environment: the matcher's state is on the
// caller's stack and the callback's captures stay on the caller's. Both
// shapes incremental maintenance calls are measured: a head-bound
// witness check and a delta pinned to a set.
func TestValuationsAllocs(t *testing.T) {
	prog := MustParseProgram(allocProgram)
	out, err := prog.Fixpoint(generate.Path("v", 24), FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := IndexInstance(out)
	c := Compile(prog.Rules[1]) // T(x,y) :- E(x,z), T(z,y).
	ts := out.Rel("T")
	f := ts[len(ts)/2]
	pinned := fact.NewInstance(out.Rel("E")[:4]...)
	for _, call := range []struct {
		name string
		pin  int
		set  *fact.Instance
		head *fact.Fact
	}{
		{"head-bound", -1, nil, &f},
		{"pinned", 0, pinned, nil},
	} {
		found := 0
		run := func() {
			found = 0
			if err := x.Valuations(c, call.pin, call.set, call.head, func(*Valuation) error {
				found++
				return nil
			}); err != nil {
				panic(err)
			}
		}
		if a := testing.AllocsPerRun(50, run); a > 1 {
			t.Errorf("%s Valuations call allocated %v objects, want at most 1", call.name, a)
		}
		if found == 0 {
			t.Errorf("%s Valuations call found no valuation; the measure is vacuous", call.name)
		}
	}
}

// probeAllocs measures, over a relation of n rows, membership on a
// frozen view of a fact the live instance has since removed and added
// again, and one round of removing a present fact, adding it back and
// freezing.
func probeAllocs(t *testing.T, n int) (has, churn float64) {
	t.Helper()
	in := fact.NewInstance()
	for i := 0; i < n; i++ {
		in.Add(fact.New("R", fact.Value(fmt.Sprint("a", i)), fact.Value(fmt.Sprint("b", i)), "c"))
	}
	x := IndexInstance(in)
	f := fact.New("R", "a7", "b7", "c")
	view := x.Freeze()
	if !x.Remove(f) || !x.Add(f) {
		t.Fatalf("remove and re-add of %v failed", f)
	}
	has = testing.AllocsPerRun(100, func() {
		if !view.Has(f) || !x.Has(f) {
			panic("a removed and re-added fact is missing")
		}
	})
	churn = testing.AllocsPerRun(50, func() {
		if !x.Remove(f) || !x.Add(f) {
			panic("remove and re-add failed")
		}
		x.Freeze()
	})
	return has, churn
}

// TestProbeAllocs (Type 1): Has on a frozen view is a hash probe and a
// removal a stamp, whatever the relation holds — no list of it is
// walked, copied or built.
func TestProbeAllocs(t *testing.T) {
	sh, sc := probeAllocs(t, 128)
	lh, lc := probeAllocs(t, 8192)
	if sh != 0 || lh != 0 {
		t.Errorf("Has on a frozen view allocated %v (n=128) and %v (n=8192) objects, want 0", sh, lh)
	}
	// Measured: 2, the view Freeze returns and the string a key of arity
	// 3 is stored under.
	if sc != lc || sc > 2 {
		t.Errorf("remove + re-add + freeze allocated %v (n=128) and %v (n=8192) objects, want the same and at most 2", sc, lc)
	}
}
