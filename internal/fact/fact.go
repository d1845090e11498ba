package fact

import "strings"

// Fact is a ground atom R(d1, ..., dk): a relation name applied to a
// tuple of domain values. Facts are immutable once created; all
// operations that appear to modify a fact return a fresh one.
//
// Internally a fact holds only interned symbol IDs (see intern.go):
// the relation name and every argument live in the process-wide
// symbol table, so equality is integer comparison and the engines can
// join and deduplicate on packed ID tuples without ever rebuilding
// strings.
type Fact struct {
	rel  ID
	args []ID
}

// New creates the fact rel(args...). The relation name must be nonempty
// and, matching the paper's convention (Section 2), the arity must be at
// least one: nullary facts are not representable.
func New(rel string, args ...Value) Fact {
	if rel == "" {
		panic("fact: empty relation name")
	}
	if len(args) == 0 {
		panic("fact: nullary facts are not supported (arity must be >= 1)")
	}
	ids := make([]ID, len(args))
	for i, v := range args {
		ids[i] = Intern(v)
	}
	return Fact{rel: InternString(rel), args: ids}
}

// FromTuple creates the fact rel(t...) sharing no storage with t.
func FromTuple(rel string, t Tuple) Fact {
	return New(rel, t...)
}

// FromIDs creates a fact from already-interned symbols, copying args.
// This is the engines' constructor: deriving a fact from bound IDs
// performs no string work at all.
func FromIDs(rel ID, args []ID) Fact {
	ids := make([]ID, len(args))
	copy(ids, args)
	return Fact{rel: rel, args: ids}
}

// Alias returns the fact rel(args...) over args itself, not a copy:
// the constructor for callers that keep IDs in immutable storage of
// their own and hand out facts over it. args must never change after.
func Alias(rel ID, args []ID) Fact {
	return Fact{rel: rel, args: args[:len(args):len(args)]}
}

// Rel returns the relation name of the fact.
func (f Fact) Rel() string { return symbols.lookup(f.rel) }

// RelID returns the interned relation name.
func (f Fact) RelID() ID { return f.rel }

// Arity returns the number of arguments.
func (f Fact) Arity() int { return len(f.args) }

// Arg returns the i-th argument (0-based).
func (f Fact) Arg(i int) Value { return Value(symbols.lookup(f.args[i])) }

// ArgIDs returns the fact's argument IDs. The slice is the fact's own
// backing storage — callers must treat it as read-only.
func (f Fact) ArgIDs() []ID { return f.args }

// Args returns a copy of the argument tuple.
func (f Fact) Args() Tuple {
	t := make(Tuple, len(f.args))
	for i, id := range f.args {
		t[i] = Value(symbols.lookup(id))
	}
	return t
}

// ADom returns the set of domain values occurring in the fact,
// written adom(f) in the paper.
func (f Fact) ADom() ValueSet {
	s := make(ValueSet, len(f.args))
	for _, id := range f.args {
		s.Add(Value(symbols.lookup(id)))
	}
	return s
}

// Key returns a canonical string encoding of the fact, usable as a map
// key: the relation name, then each argument after a NUL byte.
// Distinct facts have distinct keys provided no value contains a NUL
// byte (which the parsers reject). The engines avoid Key on hot paths —
// packed ID keys (AppendPackedIDs of the relation and the arguments)
// carry the same identity with no string building — but the textual key
// remains the canonical process-independent encoding.
func (f Fact) Key() string {
	var buf [64]byte
	dst := append(buf[:0], symbols.lookup(f.rel)...)
	for _, id := range f.args {
		dst = append(append(dst, 0), symbols.lookup(id)...)
	}
	return string(dst)
}

// Equal reports whether two facts have the same relation name and arguments.
func (f Fact) Equal(g Fact) bool {
	if f.rel != g.rel || len(f.args) != len(g.args) {
		return false
	}
	for i := range f.args {
		if f.args[i] != g.args[i] {
			return false
		}
	}
	return true
}

// compareSyms orders two interned symbols by their string values.
func compareSyms(a, b ID) int {
	if a == b {
		return 0
	}
	return strings.Compare(symbols.lookup(a), symbols.lookup(b))
}

// Compare orders facts by relation name, then by argument tuple
// (length first, then lexicographically). The order is over the
// underlying strings, not the interned IDs, so it is identical across
// processes — every deterministic artifact sorts with it.
func (f Fact) Compare(g Fact) int { return CompareIDs(f.rel, f.args, g.rel, g.args) }

// CompareIDs is Compare on the facts rel(args...) and srel(sargs...)
// given as interned IDs, for rows kept outside a Fact.
func CompareIDs(rel ID, args []ID, srel ID, sargs []ID) int {
	if c := compareSyms(rel, srel); c != 0 {
		return c
	}
	if c := len(args) - len(sargs); c != 0 {
		return c
	}
	for i := range args {
		if c := compareSyms(args[i], sargs[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Map returns the fact obtained by applying h to every argument, i.e.
// R(h(d1), ..., h(dk)). Values not present in h map to themselves.
func (f Fact) Map(h map[Value]Value) Fact {
	args := make([]ID, len(f.args))
	for i, id := range f.args {
		if w, ok := h[Value(symbols.lookup(id))]; ok {
			args[i] = Intern(w)
		} else {
			args[i] = id
		}
	}
	return Fact{rel: f.rel, args: args}
}

// String renders the fact in the conventional syntax, e.g. "E(a,b)".
// The text is built on the stack and copied out at its exact size: a
// rendered fact the cluster log keeps holds no spare capacity.
func (f Fact) String() string {
	var buf [64]byte
	return string(f.AppendString(buf[:0]))
}

// AppendString appends the fact's String form to dst: the serving
// layer renders a fact straight into its wire buffer with it.
func (f Fact) AppendString(dst []byte) []byte {
	dst = append(append(dst, symbols.lookup(f.rel)...), '(')
	for i, id := range f.args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, Value(symbols.lookup(id)))
	}
	return append(dst, ')')
}
