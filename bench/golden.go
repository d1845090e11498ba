package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The golden files pin, for the reference seeds, what a legitimate
// optimisation must not change: output digests and simulated
// statistics (transitions, messages, schedules). Scheduler operations,
// heap high-water marks and derivation counts are deliberately not
// pinned. Other seeds have no golden file and rely on the oracles.
//
//go:embed golden/*.json
var goldenFS embed.FS

// golden maps "workload/task/stat" to its pinned value.
type golden map[string]string

func goldenPath(seed int64) string { return fmt.Sprintf("golden/seed%d.json", seed) }

// goldenFor returns the seed's golden values, nil when it has none.
func goldenFor(seed int64) golden {
	data, err := goldenFS.ReadFile(goldenPath(seed))
	if err != nil {
		return nil
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return golden{"": "unreadable: " + err.Error()}
	}
	return g
}

// compareGolden holds one workload's pinned values to the golden ones.
// A golden file that lacks a pinned key fails too, so the files stay
// complete.
func compareGolden(g golden, workload string, pins map[string]string) error {
	if g == nil {
		return nil
	}
	keys := make([]string, 0, len(pins))
	for k := range pins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := g[workload+"/"+k]
		if !ok {
			return fmt.Errorf("golden: no value for %s/%s", workload, k)
		}
		if want != pins[k] {
			return fmt.Errorf("golden: %s/%s is %q, pinned %q", workload, k, pins[k], want)
		}
	}
	return nil
}

// writeGolden regenerates one seed's golden file from the batch
// workloads' current outputs (-update-golden, run from the repository
// root after an intended change of outputs).
func writeGolden(seed int64) error {
	cfg := fullConfig()
	dbatch, err := newDatalogBatch(cfg.datalog, seed)
	if err != nil {
		return err
	}
	nbatch, err := newNetsimBatch(cfg.netsim, seed)
	if err != nil {
		return err
	}
	ebatch, err := newExploreBatch(cfg.explore, seed)
	if err != nil {
		return err
	}
	g := golden{}
	for _, b := range []*batch{&dbatch.batch, &nbatch.batch, &ebatch.batch} {
		if _, _, err := b.runOnce(); err != nil {
			return err
		}
		if b.verify != nil {
			if err := b.verify(); err != nil {
				return err
			}
		}
		for k, v := range b.pins() {
			g[b.workload+"/"+k] = v
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", goldenPath(seed)), append(data, '\n'), 0o644)
}
