package cluster

import (
	"reflect"
	"testing"

	"repro/internal/fact"
	"repro/internal/serve"
)

// mergeLists hands mergeFactLists what the gather path does: each list
// as a run, canonically sorted and carrying its text. It returns the
// merged text and the facts that text parses back to.
func mergeLists(t testing.TB, lists [][]fact.Fact) ([]fact.Fact, []string) {
	facts, text := make([][]fact.Fact, len(lists)), make([][]string, len(lists))
	for i, l := range lists {
		facts[i] = append([]fact.Fact(nil), l...)
		fact.SortFacts(facts[i])
		text[i] = fact.FactStrings(l)
	}
	merged := mergeFactLists(facts, text)
	return parseAll(t, merged...), merged
}

// mergedView is the smallest serve.View over per-shard lists: what the
// shared reader (serve.ReadResponse) is handed is mergeFactLists'
// output, as on the gather path.
type mergedView struct {
	t     testing.TB
	lists [][]fact.Fact
}

func (v mergedView) Seq() int                { return 0 }
func (v mergedView) Len() int                { return len(v.FactsText()) }
func (v mergedView) BaseLen() int            { return 0 }
func (v mergedView) RelText(string) []string { return v.FactsText() }
func (v mergedView) FactsText() []string {
	_, text := mergeLists(v.t, v.lists)
	return text
}
func renderMerged(t testing.TB, lists [][]fact.Fact) []string {
	return serve.ReadResponse(mergedView{t, lists}, serve.Request{Op: "facts"}).Facts
}

func parseAll(t testing.TB, strs ...string) []fact.Fact {
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

	merged, _ := mergeLists(t, [][]fact.Fact{a, b})
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
	if got, want := renderMerged(t, [][]fact.Fact{a, b}), fact.FactStrings(union); !reflect.DeepEqual(got, want) {
		t.Fatalf("rendered merge = %v, want %v", got, want)
	}
}

func TestMergeFactListsDedup(t *testing.T) {
	a := parseAll(t, "E(a,b)", "T(a,b)")
	b := parseAll(t, "E(a,b)") // overlap: only possible under a placement bug, still merged sanely
	merged, _ := mergeLists(t, [][]fact.Fact{a, b})
	if len(merged) != 2 {
		t.Fatalf("duplicate across lists not collapsed: %v", merged)
	}
}

func TestMergeFactListsEmpty(t *testing.T) {
	if got := mergeFactLists(nil, nil); len(got) != 0 {
		t.Fatalf("merge of nothing = %v", got)
	}
	if got := renderMerged(t, [][]fact.Fact{nil, {}}); len(got) != 0 {
		t.Fatalf("merge of empties = %v", got)
	}
}

// TestMergeFactListsRuns: the k-way merge over uneven runs, an empty
// one and a single-fact one among them, with one fact planted on two
// shards: the text comes out in order, the planted fact once.
func TestMergeFactListsRuns(t *testing.T) {
	_, text := mergeLists(t, [][]fact.Fact{
		parseAll(t, "T(a,c)", "T(a,b)", "E(a,b)", "T(c,d)"),
		nil,
		parseAll(t, "T(b,c)"),
		parseAll(t, "T(a,c)", "S(a,b,c)", "T(a)"), // T(a,c) double-homed
		{},
	})
	want := []string{"E(a,b)", "S(a,b,c)", "T(a)", "T(a,b)", "T(a,c)", "T(b,c)", "T(c,d)"}
	if !reflect.DeepEqual(text, want) {
		t.Fatalf("merged text = %v, want %v", text, want)
	}
}
