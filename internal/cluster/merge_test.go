package cluster

import (
	"reflect"
	"testing"

	"repro/internal/fact"
	"repro/internal/serve"
)

// mergedView is the smallest serve.View over per-shard lists: what the
// shared renderer (serve.ReadResponse) is handed is mergeFactLists'
// output, as on the gather path.
type mergedView [][]fact.Fact

func (v mergedView) Seq() int               { return 0 }
func (v mergedView) Len() int               { return len(v.Facts()) }
func (v mergedView) BaseLen() int           { return 0 }
func (v mergedView) Rel(string) []fact.Fact { return v.Facts() }
func (v mergedView) Facts() []fact.Fact     { return mergeFactLists(v) }
func renderMerged(lists [][]fact.Fact) []string {
	return serve.ReadResponse(mergedView(lists), serve.Request{Op: "facts"}).Facts
}

func parseAll(t *testing.T, strs ...string) []fact.Fact {
	t.Helper()
	fs, err := fact.ParseFacts(strs)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestMergeFactLists(t *testing.T) {
	a := parseAll(t, "T(b,c)", "E(a,b)")
	b := parseAll(t, "E(x,y)", "T(a,b)")

	merged := mergeFactLists([][]fact.Fact{a, b})
	if len(merged) != 4 {
		t.Fatalf("merged %d facts, want 4: %v", len(merged), merged)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Compare(merged[i]) >= 0 {
			t.Fatalf("merge not strictly sorted at %d: %v", i, merged)
		}
	}

	// The wire rendering equals FactStrings of the plain union: a
	// gathered response is byte-identical to a single node holding all
	// the facts.
	union := append(append([]fact.Fact{}, a...), b...)
	if got, want := renderMerged([][]fact.Fact{a, b}), fact.FactStrings(union); !reflect.DeepEqual(got, want) {
		t.Fatalf("rendered merge = %v, want %v", got, want)
	}
}

func TestMergeFactListsDedup(t *testing.T) {
	a := parseAll(t, "E(a,b)", "T(a,b)")
	b := parseAll(t, "E(a,b)") // overlap: only possible under a placement bug, still merged sanely
	merged := mergeFactLists([][]fact.Fact{a, b})
	if len(merged) != 2 {
		t.Fatalf("duplicate across lists not collapsed: %v", merged)
	}
}

func TestMergeFactListsEmpty(t *testing.T) {
	if got := mergeFactLists(nil); len(got) != 0 {
		t.Fatalf("merge of nothing = %v", got)
	}
	if got := renderMerged([][]fact.Fact{nil, {}}); len(got) != 0 {
		t.Fatalf("merge of empties = %v", got)
	}
}
