package fact

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	a := Intern("intern-rt-a")
	b := Intern("intern-rt-b")
	if a == b {
		t.Fatalf("distinct values interned to the same ID %d", a)
	}
	if got := Intern("intern-rt-a"); got != a {
		t.Fatalf("re-interning changed the ID: %d then %d", a, got)
	}
	if got := Symbol(a); got != "intern-rt-a" {
		t.Fatalf("Symbol(%d) = %q", a, got)
	}
	if got := InternString(""); got != 0 {
		t.Fatalf("empty string must be the reserved ID 0, got %d", got)
	}
	if got := Symbol(0); got != "" {
		t.Fatalf("Symbol(0) = %q, want empty", got)
	}
}

func TestLookupValueDoesNotIntern(t *testing.T) {
	const v = Value("lookup-never-interned")
	if id, ok := LookupValue(v); ok {
		t.Fatalf("LookupValue found never-interned value as %d", id)
	}
	// A failed probe must not have grown the table.
	if _, ok := LookupValue(v); ok {
		t.Fatal("failed LookupValue interned the value as a side effect")
	}
	want := Intern(v)
	got, ok := LookupValue(v)
	if !ok || got != want {
		t.Fatalf("LookupValue after Intern = (%d, %v), want (%d, true)", got, ok, want)
	}
}

// Asking an instance about a relation nobody stored is a probe too: the
// name must not enter the process-wide, never-shrinking table.
func TestRelProbesDoNotIntern(t *testing.T) {
	const rel = "never-seen-rel"
	i := NewInstance(New("E", "a", "b"))
	if fs := i.Rel(rel); len(fs) != 0 {
		t.Errorf("Rel(%s) = %v, want none", rel, fs)
	}
	if got := i.RestrictRel(rel); !got.Empty() {
		t.Errorf("RestrictRel(%s) = %v, want empty", rel, got)
	}
	if id, ok := LookupValue(rel); ok {
		t.Fatalf("Rel/RestrictRel interned the relation name they were asked about as %d", id)
	}
}

// TestConcurrentInterning hammers the symbol table from many
// goroutines with overlapping value sets large enough to force spine
// growth (symChunkSize new symbols cross a chunk boundary), then
// checks every value got exactly one ID and every ID reads back.
func TestConcurrentInterning(t *testing.T) {
	const goroutines = 8
	n := symChunkSize + 100
	ids := make([][]ID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		ids[g] = make([]ID, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				id := InternString(fmt.Sprintf("conc-%d", i))
				ids[g][i] = id
				// Lock-free read path: the ID must resolve immediately.
				if got := Symbol(id); got != Value(fmt.Sprintf("conc-%d", i)) {
					panic(fmt.Sprintf("Symbol(%d) = %q mid-intern", id, got))
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		for g := 1; g < goroutines; g++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("value conc-%d interned to %d and %d", i, ids[0][i], ids[g][i])
			}
		}
	}
}

func TestAppendPackedIDs(t *testing.T) {
	a, b := Intern("pack-a"), Intern("pack-b")
	k1 := AppendPackedIDs(nil, a, b)
	k2 := AppendPackedIDs(nil, b, a)
	if len(k1) != 8 || len(k2) != 8 {
		t.Fatalf("packed lengths %d, %d; want 8", len(k1), len(k2))
	}
	if string(k1) == string(k2) {
		t.Fatal("packed keys of distinct tuples collide")
	}
	if got := AppendPackedIDs(k1, a); len(got) != 12 {
		t.Fatalf("appending to an existing key: len %d, want 12", len(got))
	}
}
