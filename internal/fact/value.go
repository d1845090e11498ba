// Package fact implements the relational data model of the paper
// "Weaker Forms of Monotonicity for Declarative Networking" (PODS 2014):
// data values, facts, database schemas and database instances, together
// with the instance-level notions the paper builds on — active domains,
// domain-distinctness and domain-disjointness (Section 3.1), components
// (Section 5.1), induced subinstances and homomorphisms (Section 3.2),
// and value permutations (genericity, Section 2).
//
// Instances are finite sets of facts with set semantics. All iteration
// orders exposed by this package are deterministic (sorted), so that
// higher layers — the Datalog engine, the transducer network simulator,
// and the experiment harness — produce reproducible output.
package fact

import (
	"sort"
	"strings"
	"unicode"
)

// Value is an element of the data domain dom. The paper assumes an
// infinite domain of uninterpreted values; we represent them as strings
// and never interpret them beyond equality, which preserves genericity.
//
// Values must not contain the NUL byte (used internally as a separator
// in canonical fact keys); the parsers in this package and in the
// datalog package reject such values.
type Value string

// Tuple is an ordered sequence of domain values, the argument list of a fact.
type Tuple []Value

// compare orders tuples first by length, then lexicographically.
func (t Tuple) compare(u Tuple) int {
	if len(t) != len(u) {
		if len(t) < len(u) {
			return -1
		}
		return 1
	}
	for i := range t {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// String renders the tuple as a comma-separated list without
// parentheses; values that are not bare identifiers are quoted.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = quoteValue(v)
	}
	return strings.Join(parts, ",")
}

// quoteValue renders a value in the textual syntax accepted by the
// parsers: bare when it consists solely of letters, digits, '_', '-'
// and '.', double-quoted with minimal escaping otherwise. The printed
// form always parses back to the same value (except for values
// containing a NUL byte, which the parsers reject).
func quoteValue(v Value) string {
	if isBareValue(v) {
		return string(v)
	}
	return string(appendValue(nil, v))
}

// appendValue appends v as a fact prints it: bare when the parser reads
// it back bare, else double-quoted with '"' and '\' escaped.
func appendValue(dst []byte, v Value) []byte {
	if isBareValue(v) {
		return append(dst, v...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '"' || c == '\\' {
			dst = append(dst, '\\')
		}
		dst = append(dst, v[i])
	}
	return append(dst, '"')
}

// isBareValue reports whether the value prints safely without quotes,
// mirroring the bare-value charset of the parser.
func isBareValue(v Value) bool {
	if len(v) == 0 {
		return false
	}
	for _, r := range string(v) {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' && r != '.' {
			return false
		}
	}
	return true
}

// ValueSet is a finite set of domain values, such as an active domain.
type ValueSet map[Value]struct{}

// NewValueSet builds a set from the given values.
func NewValueSet(vs ...Value) ValueSet {
	s := make(ValueSet, len(vs))
	for _, v := range vs {
		s[v] = struct{}{}
	}
	return s
}

// Has reports membership of v in the set.
func (s ValueSet) Has(v Value) bool {
	_, ok := s[v]
	return ok
}

// Add inserts v into the set.
func (s ValueSet) Add(v Value) { s[v] = struct{}{} }

// AddAll inserts every value of t into the set.
func (s ValueSet) AddAll(t ValueSet) {
	for v := range t {
		s[v] = struct{}{}
	}
}

// Minus returns a new set with the values of s that are not in t.
func (s ValueSet) Minus(t ValueSet) ValueSet {
	u := make(ValueSet)
	for v := range s {
		if !t.Has(v) {
			u.Add(v)
		}
	}
	return u
}

// Disjoint reports whether the two sets share no value.
func (s ValueSet) Disjoint(t ValueSet) bool {
	small, large := s, t
	if len(large) < len(small) {
		small, large = large, small
	}
	for v := range small {
		if large.Has(v) {
			return false
		}
	}
	return true
}

// Equal reports whether both sets contain exactly the same values.
func (s ValueSet) Equal(t ValueSet) bool {
	if len(s) != len(t) {
		return false
	}
	for v := range s {
		if !t.Has(v) {
			return false
		}
	}
	return true
}

// Sorted returns the values in lexicographic order.
func (s ValueSet) Sorted() []Value {
	vs := make([]Value, 0, len(s))
	for v := range s {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}
