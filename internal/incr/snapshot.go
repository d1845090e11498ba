package incr

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// Snapshot format (v2): JSON lines. The first line is a header carrying
// the format tag, the program source, the apply sequence number and
// the rank clock; every following line is one materialized fact — base
// facts bare, derived facts with their support count and their rank (a
// line without one restores as an unranked fact, which the witness
// check never spares) — and the last line is a trailer carrying the
// IEEE CRC-32 (hash/crc32) of every byte before it:
//
//	{"snapshot":"calm.incr","v":2,"seq":3,"clock":7,"program":"T(x,y) :- E(x,y).\n..."}
//	{"f":"E(a,b)"}
//	{"f":"T(a,b)","n":1,"r":2}
//	{"crc32":2868615394}
//
// Restore rejects a snapshot whose trailer is missing (a file torn at a
// line boundary) or does not match (a torn line, a flipped byte), and
// the error names the line. Facts are written in sorted order and the
// header field order is fixed, so snapshotting is deterministic:
// snapshot → restore → snapshot is byte-identical, which is what
// cmd/calmd's restart test checks end to end.

const (
	snapshotTag     = "calm.incr"
	snapshotVersion = 2
)

type snapshotHeader struct {
	Snapshot string `json:"snapshot"`
	V        int    `json:"v"`
	Seq      int    `json:"seq"`
	Clock    uint32 `json:"clock"`
	Program  string `json:"program"`
}

// snapshotLine is a fact line, or the trailer when CRC32 is set.
type snapshotLine struct {
	F     string  `json:"f,omitempty"`
	N     uint32  `json:"n,omitempty"`
	R     uint32  `json:"r,omitempty"`
	CRC32 *uint32 `json:"crc32,omitempty"`
}

// Snapshot writes the full materialization state to w.
func (m *Materialization) Snapshot(w io.Writer) error {
	if m.corrupt != nil {
		return m.corrupt
	}
	bw := bufio.NewWriter(w)
	sum := crc32.NewIEEE()
	enc := json.NewEncoder(io.MultiWriter(bw, sum))
	if err := enc.Encode(snapshotHeader{
		Snapshot: snapshotTag,
		V:        snapshotVersion,
		Seq:      m.seq,
		Clock:    m.clock,
		Program:  m.prog.String(),
	}); err != nil {
		return err
	}
	facts := m.x.Instance().Facts() // already in canonical SortFacts order
	for _, f := range facts {
		line := snapshotLine{F: f.String()}
		if m.idb.Has(f.Rel()) {
			d := m.rec(f)
			if d.N == 0 {
				return fmt.Errorf("incr: snapshot: derived fact %v has no support", f)
			}
			line.N, line.R = d.N, d.Rank
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	crc := sum.Sum32()
	if err := json.NewEncoder(bw).Encode(snapshotLine{CRC32: &crc}); err != nil {
		return err
	}
	return bw.Flush()
}

// Restore rebuilds a materialization from a snapshot stream, with the
// given runtime options (instrumentation — not part of the snapshot).
// The fact set, support counts and ranks are taken on faith for speed;
// call Verify to audit a restored materialization against full
// recomputation. The bytes are checked against the trailer's checksum,
// so a snapshot restores only whole.
func Restore(r io.Reader, opts Options) (*Materialization, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sum := crc32.NewIEEE()
	// next reads a line and returns the checksum of the lines before it.
	next := func() (uint32, bool) {
		crc := sum.Sum32()
		if !sc.Scan() {
			return crc, false
		}
		sum.Write(sc.Bytes())
		sum.Write([]byte{'\n'})
		return crc, true
	}
	if _, ok := next(); !ok {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("incr: restore: empty snapshot")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("incr: restore: bad header: %w", err)
	}
	if hdr.Snapshot != snapshotTag {
		return nil, fmt.Errorf("incr: restore: not a %s snapshot (tag %q)", snapshotTag, hdr.Snapshot)
	}
	if hdr.V != snapshotVersion {
		return nil, fmt.Errorf("incr: restore: unsupported snapshot version %d", hdr.V)
	}
	prog, err := datalog.ParseProgram(hdr.Program)
	if err != nil {
		return nil, fmt.Errorf("incr: restore: program: %w", err)
	}
	m, err := newEmpty(prog, opts)
	if err != nil {
		return nil, err
	}
	m.seq, m.clock = hdr.Seq, hdr.Clock
	line := 1
	for crc, ok := next(); ok; crc, ok = next() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var sf snapshotLine
		if err := json.Unmarshal(sc.Bytes(), &sf); err != nil {
			return nil, fmt.Errorf("incr: restore: line %d: %w", line, err)
		}
		if sf.CRC32 != nil {
			if sf.F != "" || *sf.CRC32 != crc {
				return nil, fmt.Errorf("incr: restore: line %d: crc32 trailer %d does not match the snapshot's %d", line, *sf.CRC32, crc)
			}
			if sc.Scan() {
				return nil, fmt.Errorf("incr: restore: line %d: data after the crc32 trailer", line+1)
			}
			return m, sc.Err()
		}
		f, err := fact.ParseFact(sf.F)
		if err != nil {
			return nil, fmt.Errorf("incr: restore: line %d: %w", line, err)
		}
		if !m.x.Add(f) {
			return nil, fmt.Errorf("incr: restore: line %d: duplicate fact %v", line, f)
		}
		if sf.N == 0 {
			if err := checkBaseFact(m.idb, m.schema, f); err != nil {
				return nil, fmt.Errorf("incr: restore: line %d: %w", line, err)
			}
			continue
		}
		if !m.idb.Has(f.Rel()) {
			return nil, fmt.Errorf("incr: restore: line %d: %v carries a support count but %s is not a derived relation", line, f, f.Rel())
		}
		if err := checkArity(m.schema, f); err != nil {
			return nil, fmt.Errorf("incr: restore: line %d: %w", line, err)
		}
		if sf.R > m.clock {
			return nil, fmt.Errorf("incr: restore: line %d: %v has rank %d, the clock reads %d", line, f, sf.R, m.clock)
		}
		*m.rec(f) = datalog.Support{N: sf.N, Rank: sf.R}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("incr: restore: line %d: the snapshot ends without its crc32 trailer", line+1)
}
