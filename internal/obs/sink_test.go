package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

type stringer struct{}

func (stringer) String() string { return "rendered" }

func TestSinkJSONL(t *testing.T) {
	var sb strings.Builder
	s := NewSink(&sb)
	s.Emit("kind.a",
		F("i", 3),
		F("i64", int64(-7)),
		F("u64", uint64(9)),
		F("f", 1.5),
		F("b", true),
		F("s", "plain"),
		F("st", stringer{}),
		F("nil", nil),
	)
	s.Emit("kind.b")
	got := sb.String()
	want := `{"ev":"kind.a","i":3,"i64":-7,"u64":9,"f":1.5,"b":true,"s":"plain","st":"rendered","nil":null}` + "\n" +
		`{"ev":"kind.b"}` + "\n"
	if got != want {
		t.Fatalf("JSONL mismatch:\n got %q\nwant %q", got, want)
	}
	if s.Events() != 2 {
		t.Fatalf("events = %d, want 2", s.Events())
	}
	// Every line must be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
	}
}

func TestSinkEscaping(t *testing.T) {
	var sb strings.Builder
	s := NewSink(&sb)
	s.Emit("k", F("s", "a\"b\\c\nd\te\rf\x01g\xffh→i"))
	line := strings.TrimSpace(sb.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("escaped line is not valid JSON: %v\n%s", err, line)
	}
	if got := m["s"]; got != "a\"b\\c\nd\te\rf\x01g�h→i" {
		t.Fatalf("round-trip = %q", got)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestSinkLatchesWriteError(t *testing.T) {
	w := &failWriter{}
	s := NewSink(w)
	s.Emit("a")
	if s.Err() != nil {
		t.Fatal("first write should succeed")
	}
	s.Emit("b")
	if s.Err() == nil {
		t.Fatal("write error not latched")
	}
	s.Emit("c")
	if w.n != 2 {
		t.Fatalf("sink kept writing after error: %d writes", w.n)
	}
}

func TestEventKindsHaveNamespaces(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range EventKinds {
		if seen[k] {
			t.Fatalf("duplicate event kind %q", k)
		}
		seen[k] = true
		if !strings.Contains(k, ".") {
			t.Fatalf("event kind %q is not namespaced", k)
		}
	}
}
