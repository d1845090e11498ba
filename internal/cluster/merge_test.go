package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/serve"
)

// The tests of this file hand the gathered view's merge what the gather
// path does: one epoch per shard, each list its run, and read the facts
// response the shared reader (serve.ReadResponse) writes from the union
// of their wire forms.

// bystander derives from a relation no list holds, so every listed fact
// is a base fact of whatever relation and arity.
const bystander = "Z(x) :- Y(x).\n"

// mergedView is the smallest serve.View over per-shard lists: one epoch
// of each, the union of their runs as its wire.
type mergedView struct{ eps []*incr.Epoch }

func (v mergedView) Seq() int     { return 0 }
func (v mergedView) Len() int     { return 0 }
func (v mergedView) BaseLen() int { return 0 }
func (v mergedView) Wire(rel string) incr.Wire {
	ws := make([]incr.Wire, len(v.eps))
	for i, ep := range v.eps {
		ws[i] = ep.Wire(rel)
	}
	return incr.Union(ws...)
}

// mergeLists returns the merged list as the facts response carries it:
// its text, and the facts that text parses back to.
func mergeLists(t testing.TB, lists [][]fact.Fact) ([]fact.Fact, []string) {
	t.Helper()
	v := mergedView{}
	for _, l := range lists {
		m, err := incr.New(datalog.MustParseProgram(bystander), fact.NewInstance(l...), incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v.eps = append(v.eps, m.Epoch())
	}
	text := decodeResp(t, encodeResp(t, serve.ReadResponse(v, serve.Request{Op: "facts"}))).Facts
	return parseAll(t, text...), text
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

	merged, text := mergeLists(t, [][]fact.Fact{a, b})
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
	if want := fact.FactStrings(union); !reflect.DeepEqual(text, want) {
		t.Fatalf("rendered merge = %v, want %v", text, want)
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
	if b, n := incr.Union().AppendTo(nil); n != 0 || len(b) != 0 {
		t.Fatalf("merge of nothing = %q, %d facts", b, n)
	}
	if _, got := mergeLists(t, [][]fact.Fact{nil, {}}); len(got) != 0 {
		t.Fatalf("merge of empties = %v", got)
	}
}

// TestMergeFactListsRuns: the k-way merge over uneven runs, an empty
// one and a single-fact one among them, with one fact planted on two
// shards: the text comes out in order, the planted fact once. Long
// runs of several chunks interleave with short ones and run ahead of
// them, so a merge copies whole chunks, single elements, and drops the
// planted duplicate wherever it falls.
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

	var long, evens, planted []fact.Fact
	var union []fact.Fact
	for i := 0; i < 500; i++ {
		f := fact.New("E", fact.Value(strings.Repeat("n", 1+i%3)), fact.Value(string(rune('a'+i%26))+string(rune('a'+i/26))))
		switch {
		case i < 300:
			long = append(long, f)
		case i%2 == 0:
			evens = append(evens, f)
		default:
			planted = append(planted, f)
		}
		union = append(union, f)
	}
	planted = append(planted, long[7], long[150], evens[3]) // double-homed, three times
	_, text = mergeLists(t, [][]fact.Fact{long, evens, planted})
	if want := fact.FactStrings(union); !reflect.DeepEqual(text, want) {
		t.Fatalf("merge of %d+%d+%d facts: %d out, want the %d of the union", len(long), len(evens), len(planted), len(text), len(want))
	}
}
