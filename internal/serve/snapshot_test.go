package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
)

// TestSnapshotUnderConcurrentWrites races snapshot ops against a
// stream of committing writes and concurrent readers, then proves
// each snapshot captured exactly one committed epoch: restoring it
// yields byte-for-byte the state the single-threaded oracle reaches
// after replaying the first capturedSeq deltas — never a torn batch.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	c := newTestCore(t, "", Options{SnapshotDir: dir, MaxBatch: 5})
	srv, err := NewTCPServerFor(c, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Start()

	const nWrites = 120
	// The writer client inserts one unique chain edge per commit, so
	// the oracle state after seq s is exactly edges 1..s.
	edge := func(s int) string { return fmt.Sprintf("E(s%d,s%d)", s-1, s) }

	var wg sync.WaitGroup
	errs := make(chan error, 3)

	// Writer: every insert is effective, seqs come out 1..nWrites.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for s := 1; s <= nWrites; s++ {
			line := fmt.Sprintf(`{"op":"insert","facts":["%s"]}`+"\n", edge(s))
			if _, err := conn.Write([]byte(line)); err != nil {
				errs <- err
				return
			}
			resp, err := br.ReadString('\n')
			if err != nil {
				errs <- err
				return
			}
			var r Response
			if err := json.Unmarshal([]byte(resp), &r); err != nil || !r.OK || r.Seq == nil || *r.Seq != s {
				errs <- fmt.Errorf("write %d: %s", s, resp)
				return
			}
		}
	}()

	// Snapshotter: fires snapshots as fast as the writer commits,
	// collecting (file, capturedSeq) pairs.
	type snap struct {
		name string
		seq  int
	}
	var snaps []snap
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			name := fmt.Sprintf("racing-%d.snap", i)
			req, _ := json.Marshal(Request{Op: "snapshot", Path: name})
			resp := c.HandleLine(req)
			if !resp.OK || resp.Seq == nil {
				errs <- fmt.Errorf("snapshot %d: %+v", i, resp)
				return
			}
			snaps = append(snaps, snap{name: name, seq: *resp.Seq})
		}
	}()

	// Reader: hammers pinned queries throughout, checking internal
	// consistency (count matches the echoed epoch's edge count).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			resp := c.HandleLine([]byte(`{"op":"query","rel":"E","epoch":true}`))
			if !resp.OK || resp.Epoch == nil || resp.Count == nil {
				errs <- fmt.Errorf("pinned read: %+v", resp)
				return
			}
			if *resp.Count != *resp.Epoch {
				errs <- fmt.Errorf("epoch %d served %d edges", *resp.Epoch, *resp.Count)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Oracle replay prefixes: restore each snapshot and byte-compare.
	for _, sn := range snaps {
		f, err := os.Open(filepath.Join(dir, sn.name))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := incr.Restore(f, incr.Options{})
		f.Close()
		if err != nil {
			t.Fatalf("restore %s: %v", sn.name, err)
		}
		if restored.Seq() != sn.seq {
			t.Fatalf("%s: restored seq %d, response reported %d", sn.name, restored.Seq(), sn.seq)
		}
		var edges []string
		for s := 1; s <= sn.seq; s++ {
			edges = append(edges, edge(s))
		}
		oracle, err := incr.New(datalog.MustParseProgram(testProgram), nil, incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ins, err := fact.ParseFacts(edges)
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) > 0 {
			if _, err := oracle.Apply(incr.Delta{Insert: ins}); err != nil {
				t.Fatal(err)
			}
		}
		got := fact.FactStrings(restored.Instance().Facts())
		want := fact.FactStrings(oracle.Instance().Facts())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s (seq %d) is not the committed epoch:\ngot  %v\nwant %v", sn.name, sn.seq, got, want)
		}
		if err := restored.Verify(); err != nil {
			t.Fatalf("%s: %v", sn.name, err)
		}
	}
}

// TestSnapshotRestartByteIdentical proves the full restart loop at
// the serving layer: queries answered before a snapshot, after
// restoring it into a fresh core, and after a re-snapshot round trip
// are all byte-identical.
func TestSnapshotRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	c := newTestCore(t, "E(a,b)\nE(b,c)\nE(c,a)\nE(c,d)\n", Options{SnapshotDir: dir})

	queries := []string{
		`{"op":"query","rel":"T"}`,
		`{"op":"query","rel":"OnLoop"}`,
		`{"op":"query","rel":"Off"}`,
		`{"op":"facts"}`,
		`{"op":"stats"}`,
	}
	before := runSession(t, c, append([]string{`{"op":"snapshot","path":"restart.snap"}`}, queries...)...)

	f, err := os.Open(filepath.Join(dir, "restart.snap"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := incr.Restore(f, incr.Options{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCore(m2, Options{SnapshotDir: dir})
	t.Cleanup(c2.Close)

	after := runSession(t, c2, queries...)
	for i, q := range queries {
		if before[i+1] != after[i] {
			t.Fatalf("%s diverges across restart:\nbefore: %s\nafter:  %s", q, before[i+1], after[i])
		}
	}

	// Re-snapshot: the snapshot of the restored state must be
	// byte-identical to the original file.
	if resp := c2.HandleLine([]byte(`{"op":"snapshot","path":"again.snap"}`)); !resp.OK {
		t.Fatalf("re-snapshot: %+v", resp)
	}
	b1, err := os.ReadFile(filepath.Join(dir, "restart.snap"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(dir, "again.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("snapshot -> restore -> snapshot is not byte-identical")
	}
}

// TestFailedSnapshotKeepsPrevious: a snapshot that cannot be written —
// the materialization is poisoned and refuses, or the write fails part
// way — leaves the previous file byte-identical and no temporary file
// behind.
func TestFailedSnapshotKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	onlyFile := func(name string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 || ents[0].Name() != name {
			t.Fatalf("directory holds %v (%v), want only %s", ents, err, name)
		}
	}

	// A materialization one request can poison: restored from a
	// snapshot that understates Off(a)'s two derivations, so retracting
	// both in one delta underflows the count and the apply fails.
	honest, err := incr.New(datalog.MustParseProgram(testProgram), fact.MustParseInstance(`E(a,b) E(a,c)`), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := honest.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	doctored := bytes.Replace(snap.Bytes(), []byte(`{"f":"Off(a)","n":2,`), []byte(`{"f":"Off(a)","n":1,`), 1)
	if bytes.Equal(doctored, snap.Bytes()) {
		t.Fatalf("snapshot has no Off(a) line with support 2:\n%s", snap.Bytes())
	}
	// Re-seal the doctored lines with their own crc32 trailer, as a
	// writer holding the understated count would have.
	body := doctored[:bytes.LastIndexByte(doctored[:len(doctored)-1], '\n')+1]
	doctored = fmt.Appendf(body, "{\"crc32\":%d}\n", crc32.ChecksumIEEE(body))
	m, err := incr.Restore(bytes.NewReader(doctored), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(m, Options{SnapshotDir: dir})
	t.Cleanup(c.Close)

	const req = `{"op":"snapshot","path":"keep.snap"}`
	if resp := c.HandleLine([]byte(req)); !resp.OK {
		t.Fatalf("first snapshot: %+v", resp)
	}
	path := filepath.Join(dir, "keep.snap")
	before, err := os.ReadFile(path)
	if err != nil || len(before) == 0 {
		t.Fatalf("first snapshot file: %d bytes, %v", len(before), err)
	}
	if resp := c.HandleLine([]byte(`{"op":"retract","facts":["E(a,b)","E(a,c)"]}`)); resp.OK {
		t.Fatal("the poisoning retract succeeded; the fixture no longer underflows")
	}
	if resp := c.HandleLine([]byte(req)); resp.OK {
		t.Fatal("a poisoned materialization answered a snapshot request OK")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed snapshot changed the previous file (%v):\nbefore: %s\nafter:  %s", err, before, after)
	}
	onlyFile("keep.snap")

	// A write that fails after some bytes went out.
	boom := fmt.Errorf("disk full")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a snapsh"); err != nil {
			return err
		}
		return boom
	}); err != boom {
		t.Fatalf("writeFileAtomic = %v, want the write error", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed write changed the previous file (%v): %s", err, after)
	}
	onlyFile("keep.snap")

	// And a write that succeeds replaces it whole.
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); string(after) != "new" {
		t.Fatalf("successful write left %q", after)
	}
	onlyFile("keep.snap")
}
