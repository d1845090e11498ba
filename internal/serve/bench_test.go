package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
)

const benchProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
`

func benchCore(b *testing.B, chain int) *Core {
	b.Helper()
	var sb strings.Builder
	for i := 0; i < chain-1; i++ {
		fmt.Fprintf(&sb, "E(n%d,n%d)\n", i, i+1)
	}
	input, err := fact.ParseInstance(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	m, err := incr.New(datalog.MustParseProgram(benchProgram), input, incr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c := NewCore(m, Options{})
	b.Cleanup(c.Close)
	return c
}

// BenchmarkPinnedReads measures the epoch-pinned read path end to
// end (decode, pin, memoized render, response) via HandleLine.
func BenchmarkPinnedReads(b *testing.B) {
	c := benchCore(b, 16)
	line := []byte(`{"op":"query","rel":"T"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := c.HandleLine(line); !resp.OK {
			b.Fatalf("query failed: %+v", resp)
		}
	}
}

// BenchmarkColdReads measures the same read against a fresh epoch and a
// fresh memo every time. No commit lies between the epochs, so they
// share the run the first read built: a memo miss is the marshal.
func BenchmarkColdReads(b *testing.B) {
	c := benchCore(b, 16)
	req := Request{Op: "query", Rel: "T"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var memo ReadMemo
		if resp := memo.Respond(c.m.Epoch(), req); !resp.OK {
			b.Fatalf("query failed: %+v", resp)
		}
	}
}

// BenchmarkWriteCommit measures one mutating op through the writer
// goroutine: enqueue, apply, group commit, epoch publish, response.
func BenchmarkWriteCommit(b *testing.B) {
	c := benchCore(b, 16)
	ins := []byte(`{"op":"insert","facts":["E(w0,w1)"]}`)
	del := []byte(`{"op":"retract","facts":["E(w0,w1)"]}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := ins
		if i%2 == 1 {
			line = del
		}
		if resp := c.HandleLine(line); !resp.OK {
			b.Fatalf("write failed: %+v", resp)
		}
	}
}

// BenchmarkEpochPublish measures Epoch() with no flow to fold in: one
// Epoch value over the runs the last one published.
func BenchmarkEpochPublish(b *testing.B) {
	c := benchCore(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := c.m.Epoch()
		if e.Len() == 0 {
			b.Fatal("empty epoch")
		}
	}
}
