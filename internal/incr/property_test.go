package incr

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
)

// TestPropertyIncrementalEqualsRecompute is the subsystem's acceptance
// property: over hundreds of seeded random programs and mixed
// insert/retract update streams, the incrementally maintained
// materialization is set-equal to full stratified recomputation after
// EVERY delta, and Verify audits the
// support counts and the rank invariant clean after every delta too —
// with every derived fact ranked, so that a rank lost along the way
// fails here instead of quietly sending its fact through delete and
// rederive.
func TestPropertyIncrementalEqualsRecompute(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))

			// Draw random programs until one stratifies; RandomProgram
			// can produce recursion through negation.
			var prog *datalog.Program
			for {
				src := generate.RandomProgram(rng, 2+rng.Intn(4))
				p, err := datalog.ParseProgram(src)
				if err != nil {
					t.Fatalf("parse generated program: %v", err)
				}
				if p.IsStratifiable() {
					prog = p
					break
				}
			}

			pool := generate.Values("v", 3+rng.Intn(2))
			edb := prog.EDB()
			base := generate.Random(rng, edb, pool, rng.Intn(8))
			stream := generate.UpdateStream(rng, edb, pool, base, 6, 3)

			m, err := New(prog, base, Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}

			cur := base.Clone()
			for step, u := range stream {
				d := Delta{Insert: u.Insert, Retract: u.Retract}
				if _, err := m.Apply(d); err != nil {
					t.Fatalf("step %d: Apply: %v\nprogram:\n%s", step, err, prog)
				}
				for _, f := range u.Insert {
					cur.Add(f)
				}
				for _, f := range u.Retract {
					cur.Remove(f)
				}
				want, err := prog.EvalStratified(cur, datalog.FixpointOptions{})
				if err != nil {
					t.Fatalf("step %d: recompute: %v\nprogram:\n%s", step, err, prog)
				}
				got := m.Instance()
				if !got.Equal(want) {
					t.Fatalf("step %d: materialization diverged\nprogram:\n%s\nbase: %v\nextra: %v\nmissing: %v",
						step, prog, cur, got.Minus(want), want.Minus(got))
				}
				if err := m.Verify(); err != nil {
					t.Fatalf("step %d: Verify: %v\nprogram:\n%s", step, err, prog)
				}
				// The base is computed from the one store: its edb facts.
				if b := m.Base(); !b.Equal(cur) {
					t.Fatalf("step %d: Base() = %v, want %v\nprogram:\n%s", step, b, cur, prog)
				}
				if n := m.Epoch().BaseLen(); n != cur.Len() {
					t.Fatalf("step %d: epoch base count %d, want %d\nprogram:\n%s", step, n, cur.Len(), prog)
				}
				eachDerived(m, func(f fact.Fact, d datalog.Support) {
					if d.Rank == 0 {
						t.Fatalf("step %d: derived fact %v has no rank\nprogram:\n%s", step, f, prog)
					}
				})
			}
		})
	}
}

// TestPropertySnapshotRoundTrip spot-checks snapshot determinism on
// the same generated population: snapshot → restore → snapshot is
// byte-identical and the restored materialization continues to track
// recomputation.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			var prog *datalog.Program
			for {
				p, err := datalog.ParseProgram(generate.RandomProgram(rng, 2+rng.Intn(3)))
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if p.IsStratifiable() {
					prog = p
					break
				}
			}
			pool := generate.Values("v", 4)
			base := generate.Random(rng, prog.EDB(), pool, 6)
			m, err := New(prog, base, Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			snap1 := snapshotString(t, m)
			m2, err := Restore(strings.NewReader(snap1), Options{})
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if snap2 := snapshotString(t, m2); snap2 != snap1 {
				t.Fatalf("snapshot not byte-stable across restore:\n--- first ---\n%s--- second ---\n%s", snap1, snap2)
			}
			if err := m2.Verify(); err != nil {
				t.Fatalf("restored Verify: %v", err)
			}
			// The restored materialization keeps maintaining correctly.
			for _, u := range generate.UpdateStream(rng, prog.EDB(), pool, base, 3, 2) {
				if _, err := m2.Apply(Delta{Insert: u.Insert, Retract: u.Retract}); err != nil {
					t.Fatalf("Apply after restore: %v", err)
				}
			}
			if err := m2.Verify(); err != nil {
				t.Fatalf("post-restore stream Verify: %v\nprogram:\n%s", err, prog)
			}
		})
	}
}

func snapshotString(t *testing.T, m *Materialization) string {
	t.Helper()
	var b bytes.Buffer
	if err := m.Snapshot(&b); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return b.String()
}

// reseal replaces the crc32 trailer of an edited snapshot with the
// checksum of its edited lines, as a writer of that content would have.
func reseal(snap string) string {
	body := snap[:strings.LastIndex(strings.TrimSuffix(snap, "\n"), "\n")+1]
	return body + fmt.Sprintf("{\"crc32\":%d}\n", crc32.ChecksumIEEE([]byte(body)))
}

// TestRestoreRejectsTornSnapshots: a snapshot cut at any line boundary
// short of its end, or with any one byte changed, does not restore, and
// the error names a line.
func TestRestoreRejectsTornSnapshots(t *testing.T) {
	m, err := New(datalog.MustParseProgram("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z)."),
		fact.MustParseInstance("E(a,b) E(b,c) E(c,d)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotString(t, m)
	if _, err := Restore(strings.NewReader(snap), Options{}); err != nil {
		t.Fatalf("the whole snapshot: %v", err)
	}
	lines := strings.SplitAfter(snap, "\n")
	for k := 1; k < len(lines)-1; k++ {
		torn := strings.Join(lines[:k], "")
		_, err := Restore(strings.NewReader(torn), Options{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", k+1)) {
			t.Errorf("cut after %d of %d lines: %v, want an error naming line %d", k, len(lines)-1, err, k+1)
		}
	}
	for i := range snap {
		b := []byte(snap)
		b[i] ^= 0x01
		if _, err := Restore(bytes.NewReader(b), Options{}); err == nil {
			t.Errorf("byte %d (%q) flipped: restored", i, snap[i])
		}
	}
}

// TestRestoreRejectsDerivedLinesOfTheWrongArity: a derived line is held
// to the program's arity as a base line is, so an edited line fails the
// restore, naming the line, instead of being served until Verify runs.
func TestRestoreRejectsDerivedLinesOfTheWrongArity(t *testing.T) {
	m := mustNew(t, tcProg, fact.MustParseInstance("E(a,b)"), Options{})
	snap := snapshotString(t, m)
	if !strings.Contains(snap, `"f":"T(a,b)"`) {
		t.Fatalf("snapshot holds no T(a,b) line:\n%s", snap)
	}
	for _, edit := range []string{"T(a)", "T(a,b,c)"} {
		_, err := Restore(strings.NewReader(reseal(strings.Replace(snap, `"f":"T(a,b)"`, `"f":"`+edit+`"`, 1))), Options{})
		if err == nil || !strings.Contains(err.Error(), "line 3:") || !strings.Contains(err.Error(), "arity") {
			t.Errorf("T(a,b) edited to %s: %v, want an arity error naming line 3", edit, err)
		}
	}
}
