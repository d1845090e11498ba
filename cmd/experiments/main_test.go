package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRowsMatchOutput runs the reproduction and byte-compares all of
// its output — every row, the bounded matrix and the footer — with
// experiments_output.txt. Each row of the file is also a subtest, so a
// failure names the rows that changed.
func TestRowsMatchOutput(t *testing.T) {
	data, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run(&buf)
	rows := func(out string) (ids []string, line map[string]string) {
		line = map[string]string{}
		for _, l := range strings.Split(out, "\n") {
			if _, rest, ok := strings.Cut(l, "] "); ok && strings.HasPrefix(l, "[") {
				id := strings.Fields(rest)[0]
				ids = append(ids, id)
				line[id] = l
			}
		}
		return ids, line
	}
	_, got := rows(buf.String())
	ids, want := rows(string(data))
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			if got[id] != want[id] {
				t.Errorf("row differs from experiments_output.txt:\n got %s\nwant %s", got[id], want[id])
			}
		})
	}
	if buf.String() != string(data) {
		t.Errorf("output differs from experiments_output.txt:\n%s", buf.String())
	}
}

// The bounded-hierarchy matrix must agree with Theorem 3.1 in every
// cell: clique, star and duplicate families against Mⁱdistinct and
// Mⁱdisjoint for i = 1..3.
func TestBoundedMatrixAgrees(t *testing.T) {
	rows := boundedMatrix(3, 150)
	if want := 6 * len(families()); len(rows) != want {
		t.Fatalf("matrix has %d cells, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Expected != r.Observed {
			t.Errorf("%s vs %s: expected member=%v, observed member=%v", r.Query, r.Class, r.Expected, r.Observed)
		}
	}
}

// Spot-check a few cells against the hand-derived expectations, which
// do not go through the families' expected-membership functions.
func TestBoundedMatrixSpotCells(t *testing.T) {
	rows := boundedMatrix(3, 100)
	find := func(query, class string) *matrixRow {
		for i := range rows {
			if rows[i].Query == query && rows[i].Class == class {
				return &rows[i]
			}
		}
		t.Fatalf("cell %s/%s missing", query, class)
		return nil
	}
	cases := []struct {
		query, class string
		member       bool
	}{
		{"Q^3_clique", "M^1_distinct", true},
		{"Q^3_clique", "M^2_distinct", false},
		{"Q^3_clique", "M^2_disjoint", true},
		{"Q^3_clique", "M^3_disjoint", false},
		{"Q^4_clique", "M^2_distinct", true},
		{"Q^4_clique", "M^3_distinct", false},
		{"Q^2_star", "M^1_distinct", false},
		{"Q^2_star", "M^1_disjoint", true},
		{"Q^2_star", "M^2_disjoint", false},
		{"Q^3_star", "M^2_disjoint", true},
		{"Q^3_star", "M^3_disjoint", false},
		{"Q^3_duplicate", "M^2_distinct", true},
		{"Q^3_duplicate", "M^3_distinct", false},
		{"Q^3_duplicate", "M^2_disjoint", true},
		{"Q^3_duplicate", "M^3_disjoint", false},
	}
	for _, c := range cases {
		if r := find(c.query, c.class); r.Observed != c.member {
			t.Errorf("%s vs %s: observed %v, want %v", c.query, c.class, r.Observed, c.member)
		}
	}
}

// Theorem 4.5 / Corollary 4.6: the strategies run in All-free models
// (row F2.11), and the win-move headline runs end-to-end under domain
// guidance without All (row F2.10b).
func TestTheorem45_WinMoveWithoutAll(t *testing.T) {
	want := map[string]bool{"F2.10b": true, "F2.11": true}
	for _, e := range allExperiments() {
		if !want[e.id] {
			continue
		}
		delete(want, e.id)
		if observed, ok := e.run(obs.NewRegistry()); !ok {
			t.Errorf("%s: %s", e.id, observed)
		}
	}
	for id := range want {
		t.Errorf("row %s missing", id)
	}
}
