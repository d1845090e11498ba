package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRowsMatchOutput renders the rows that run the absence and
// domain-request strategies — their computations, witnesses and
// necessity runs (F2.9–F2.11, N1, N2) and the fault matrix (X2–X7) —
// and byte-compares each with its line in experiments_output.txt.
func TestRowsMatchOutput(t *testing.T) {
	data, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "[") && len(f) > 2 {
			golden[f[2]] = line
		}
	}
	rows := map[string]bool{"F2.9": true, "F2.10a": true, "F2.10b": true, "F2.11": true, "N1": true, "N2": true,
		"X2": true, "X3": true, "X4": true, "X5": true, "X6": true, "X7": true}
	for _, e := range allExperiments() {
		if !rows[e.id] {
			continue
		}
		delete(rows, e.id)
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			observed, ok := e.run(obs.NewRegistry())
			if got, want := formatRow(e, observed, ok), golden[e.id]; got != want {
				t.Errorf("row differs from experiments_output.txt:\n got %s\nwant %s", got, want)
			}
		})
	}
	for id := range rows {
		t.Errorf("no experiment %s", id)
	}
}
