package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Field is one ordered key/value pair of an event. Field order is part
// of the trace format: renderers emit fields in the order given, so a
// fixed emission site produces a byte-stable line.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Sink serializes events to a writer as JSONL, one object per line:
// {"ev":"<kind>","<key>":<value>,...}. All methods are safe for
// concurrent use and no-ops on a nil *Sink, so holders guard hot paths
// with a plain nil check:
//
//	if s.sink != nil { s.sink.Emit(...) }
//
// The guard matters: building the variadic field list costs
// allocations even when the sink would discard the event.
type Sink struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	events uint64
	err    error
}

// NewSink returns a sink writing to w.
func NewSink(w io.Writer) *Sink { return &Sink{w: w} }

// Emit renders and writes one event: a kind (see the Ev* constants in
// names.go) plus ordered fields. No-op on a nil sink. The first write
// error latches (see Err) and later events are dropped.
func (s *Sink) Emit(kind string, fields ...Field) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.events++
	s.buf = appendJSONL(s.buf[:0], kind, fields)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// Events returns the number of events emitted (0 on a nil sink).
func (s *Sink) Events() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// Err returns the first write error, if any.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// appendJSONL renders one event: one compact JSON object, fields in
// emission order, terminated by a newline. Rendering is hand-rolled
// (rather than encoding/json) precisely to preserve field order —
// byte-identical traces for equal seeds are a tested contract.
func appendJSONL(buf []byte, kind string, fields []Field) []byte {
	buf = append(buf, `{"ev":`...)
	buf = appendJSONString(buf, kind)
	for _, f := range fields {
		buf = append(buf, ',')
		buf = appendJSONString(buf, f.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, f.Value)
	}
	return append(buf, '}', '\n')
}

func appendJSONValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case bool:
		return strconv.AppendBool(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	case float64:
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case string:
		return appendJSONString(buf, x)
	case fmt.Stringer:
		return appendJSONString(buf, x.String())
	default:
		return appendJSONString(buf, fmt.Sprint(x))
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Control
// characters, quotes and backslashes are escaped; valid UTF-8 passes
// through raw (JSON permits it), and invalid bytes are escaped so the
// output is always well-formed.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				buf = append(buf, '\\', c)
			case c == '\n':
				buf = append(buf, '\\', 'n')
			case c == '\t':
				buf = append(buf, '\\', 't')
			case c == '\r':
				buf = append(buf, '\\', 'r')
			case c < 0x20:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				buf = append(buf, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		buf = append(buf, s[i:i+size]...)
		i += size
	}
	return append(buf, '"')
}
