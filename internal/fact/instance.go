package fact

import (
	"slices"
	"strings"
)

// Instance is a database instance: a finite set of facts. Create
// instances with NewInstance. Instances have set semantics (adding a
// fact twice is a no-op).
//
// Facts are stored columnar: per (relation, arity) the argument
// tuples live in one flat slice of interned IDs with a
// packed-key hash index (see columnar.go). The columns are a slice in
// first-insert order, searched linearly: an instance holds one to a few
// relations (under thirty at the widest), where a scan beats a map and
// a walk needs no iterator. Membership and mutation are integer work —
// no fact key strings are built — and the ID-level accessors (HasIDs,
// AddIDs) let the fixpoint engines deduplicate derived tuples without
// materializing a Fact at all.
type Instance struct {
	rels []column
	n    int
}

// SortFacts sorts facts in place into the package's canonical
// deterministic order — by relation name, then argument tuple
// (Fact.Compare). This is the single definition of the
// deterministic-iteration contract: every sorted fact slice the
// package (and the engines above it) exposes uses it.
func SortFacts(fs []Fact) {
	slices.SortFunc(fs, Fact.Compare)
}

// FactStrings renders facts in canonical SortFacts order as their
// textual forms. The input slice is left untouched (callers hand it
// slices other readers share). The result
// is the wire representation of a fact list: every byte-identical
// response guarantee in the serving protocol reduces to this function
// being a pure function of the fact set.
func FactStrings(fs []Fact) []string {
	sorted := make([]Fact, len(fs))
	copy(sorted, fs)
	SortFacts(sorted)
	out := make([]string, len(sorted))
	for i, f := range sorted {
		out[i] = f.String()
	}
	return out
}

// NewInstance creates an instance containing the given facts.
func NewInstance(facts ...Fact) *Instance {
	i := &Instance{}
	for _, f := range facts {
		i.Add(f)
	}
	return i
}

// Table is the rows of one relation at one arity as an Instance stores
// them: the argument tuples row-major in Args, and Index mapping each
// tuple to its row number.
type Table struct {
	Rel   ID
	Arity int
	Args  []ID
	Index TupleIndex
}

// FromTables returns the instance holding the tables' rows. It takes
// them over instead of copying: the caller gives up Args and Index. A
// table's tuples must be distinct, each indexed at its row, and no two
// tables may share relation and arity.
func FromTables(tabs []Table) *Instance {
	i := &Instance{}
	for _, t := range tabs {
		n := t.Index.len()
		if n == 0 {
			continue
		}
		i.rels = append(i.rels, column{rel: t.Rel, arity: t.Arity, n: n, args: t.Args, idx: t.Index})
		i.n += n
	}
	return i
}

// col returns the column of rel at the given arity, or nil. The pointer
// is into the slice: it is valid until colFor adds a column.
func (i *Instance) col(rel ID, arity int) *column {
	for k := range i.rels {
		if c := &i.rels[k]; c.rel == rel && c.arity == arity {
			return c
		}
	}
	return nil
}

// colFor is col, adding the column if there is none.
func (i *Instance) colFor(rel ID, arity int) *column {
	if c := i.col(rel, arity); c != nil {
		return c
	}
	i.rels = append(i.rels, newColumn(rel, arity))
	return &i.rels[len(i.rels)-1]
}

// Add inserts f, reporting whether it was newly added.
func (i *Instance) Add(f Fact) bool {
	return i.AddIDs(f.rel, f.args)
}

// AddIDs inserts the fact rel(args...) given as interned IDs,
// reporting whether it was newly added. The IDs are copied; the
// caller keeps args.
func (i *Instance) AddIDs(rel ID, args []ID) bool {
	if !i.colFor(rel, len(args)).add(args) {
		return false
	}
	i.n++
	return true
}

// AddAll inserts every fact of j, reporting how many were newly added.
func (i *Instance) AddAll(j *Instance) int {
	n := 0
	for _, c := range j.rels {
		if c.rows() == 0 {
			continue
		}
		dst := i.colFor(c.rel, c.arity)
		c.each(func(args []ID) bool {
			if dst.add(args) {
				i.n++
				n++
			}
			return true
		})
	}
	return n
}

// Reset empties the instance and keeps its storage: every column stays,
// with no rows, so refilling it with facts of the relations it held
// before allocates nothing. Whoever resets an instance owns it; a reader
// handed it before must be done with it.
func (i *Instance) Reset() {
	for k := range i.rels {
		i.rels[k].reset()
	}
	i.n = 0
}

// Remove deletes f, reporting whether it was present.
func (i *Instance) Remove(f Fact) bool {
	c := i.col(f.rel, len(f.args))
	if c == nil || !c.remove(f.args) {
		return false
	}
	i.n--
	return true
}

// RemoveAll deletes every fact of j from i.
func (i *Instance) RemoveAll(j *Instance) {
	for _, c := range j.rels {
		dst := i.col(c.rel, c.arity)
		if dst == nil {
			continue
		}
		c.each(func(args []ID) bool {
			if dst.remove(args) {
				i.n--
			}
			return true
		})
	}
}

// Has reports whether f is in the instance.
func (i *Instance) Has(f Fact) bool {
	return i.HasIDs(f.rel, f.args)
}

// HasIDs reports whether the fact rel(args...) given as interned IDs
// is in the instance.
func (i *Instance) HasIDs(rel ID, args []ID) bool {
	c := i.col(rel, len(args))
	return c != nil && c.has(args)
}

// Len returns |I|, the number of facts.
func (i *Instance) Len() int { return i.n }

// Empty reports whether the instance contains no facts.
func (i *Instance) Empty() bool { return i.n == 0 }

// Facts returns all facts in deterministic (sorted) order.
func (i *Instance) Facts() []Fact {
	fs := make([]Fact, 0, i.n)
	for _, c := range i.rels {
		for r := 0; r < c.rows(); r++ {
			fs = append(fs, c.fact(r))
		}
	}
	SortFacts(fs)
	return fs
}

// EachSortedIDs is EachIDs with each column's rows in the order Facts
// lists them (Fact.Compare): one (relation, arity) after another, in
// first-insert order, each column sorted by its arguments' strings. fn
// receives the column's own storage, read-only and valid only for the
// call, so the walk builds no Fact. Strings are compared only to rank a
// column's distinct values; the rows are then put in order by a radix
// sort on the ranks, last position first, which is linear.
func (i *Instance) EachSortedIDs(fn func(rel ID, args []ID)) {
	rank := NewTupleIndex(1) // value -> its index in vals, then its rank
	var vals []ID
	var ranks, count []uint32
	var perm, next []int32
	for k := range i.rels {
		c := &i.rels[k]
		rank.reset()
		vals = vals[:0]
		for j := range c.args {
			if _, added := rank.PutNew(c.args[j:j+1], int32(len(vals))); added {
				vals = append(vals, c.args[j])
			}
		}
		slices.SortFunc(vals, compareSyms)
		for r := range vals {
			rank.put(vals[r:r+1], int32(r))
		}
		ranks = ranks[:0]
		for j := range c.args {
			r, _ := rank.Get(c.args[j : j+1])
			ranks = append(ranks, uint32(r))
		}
		perm, next = perm[:0], slices.Grow(next[:0], c.n)[:c.n]
		for r := range c.n {
			perm = append(perm, int32(r))
		}
		count = slices.Grow(count[:0], len(vals)+1)[:len(vals)+1]
		for p := c.arity - 1; p >= 0; p-- { // a stable counting sort per position
			clear(count)
			for _, r := range perm {
				count[ranks[int(r)*c.arity+p]+1]++
			}
			for v := 1; v < len(count); v++ {
				count[v] += count[v-1]
			}
			for _, r := range perm {
				v := ranks[int(r)*c.arity+p]
				next[count[v]] = r
				count[v]++
			}
			perm, next = next, perm
		}
		for _, r := range perm {
			fn(c.rel, c.row(int(r)))
		}
	}
}

// Each calls fn for every fact in unspecified order; it stops early if
// fn returns false. Use Facts for deterministic order.
func (i *Instance) Each(fn func(Fact) bool) {
	for _, c := range i.rels {
		for r := 0; r < c.rows(); r++ {
			if !fn(c.fact(r)) {
				return
			}
		}
	}
}

// EachIDs is Each over interned IDs: fn receives every fact's relation
// and its argument row — the instance's own storage, read-only and
// valid only for the call — so a walk materialises no Fact. Relations
// come in first-insert order, so walks of an unchanged instance agree.
func (i *Instance) EachIDs(fn func(rel ID, args []ID) bool) {
	for _, c := range i.rels {
		for r := 0; r < c.rows(); r++ {
			if !fn(c.rel, c.row(r)) {
				return
			}
		}
	}
}

// Rows returns the argument rows of relation rel with the given arity,
// row-major in one flat slice: the instance's own storage, read-only
// and valid until the next mutation.
func (i *Instance) Rows(rel ID, arity int) []ID {
	if c := i.col(rel, arity); c != nil {
		return c.args
	}
	return nil
}

// Count returns the number of facts of relation rel with the given
// arity.
func (i *Instance) Count(rel ID, arity int) int {
	if c := i.col(rel, arity); c != nil {
		return c.rows()
	}
	return 0
}

// EachTuple calls fn with every tuple of the given arity over vals, in
// odometer order over vals' order, until fn returns false. The slice fn
// receives is reused between calls; copy it to keep it.
func EachTuple(vals []ID, arity int, fn func(args []ID) bool) {
	if len(vals) == 0 && arity > 0 {
		return
	}
	pos := make([]int, arity)
	args := make([]ID, arity)
	for k := range args {
		args[k] = vals[0]
	}
	for {
		if !fn(args) {
			return
		}
		k := arity - 1
		for ; k >= 0; k-- {
			if pos[k]++; pos[k] < len(vals) {
				args[k] = vals[pos[k]]
				break
			}
			pos[k], args[k] = 0, vals[0]
		}
		if k < 0 {
			return
		}
	}
}

// EachNewTuple is EachTuple over the tuples that hold a value of fresh,
// a subset of vals; both are sorted by ID. Those are the tuples over
// vals that are not over vals ∖ fresh, and fn sees each once, in
// odometer order, at a cost in proportion to their number: a tuple with
// no fresh value before its last position takes its last from fresh.
func EachNewTuple(vals, fresh []ID, arity int, fn func(args []ID) bool) {
	if len(fresh) == 0 || arity == 0 {
		return
	}
	if len(fresh) == len(vals) {
		EachTuple(vals, arity, fn)
		return
	}
	args := make([]ID, arity)
	var walk func(k int, touched bool) bool
	walk = func(k int, touched bool) bool {
		if k == arity {
			return fn(args)
		}
		from := vals
		if !touched && k == arity-1 {
			from = fresh
		}
		for _, v := range from {
			args[k] = v
			if !walk(k+1, touched || slices.Contains(fresh, v)) {
				return false
			}
		}
		return true
	}
	walk(0, false)
}

// Rel returns the facts of relation rel in sorted order.
func (i *Instance) Rel(rel string) []Fact {
	id, _ := LookupValue(Value(rel)) // not interned: NoID, the relation of no fact, for a name never seen
	var fs []Fact
	for _, c := range i.rels {
		if c.rel != id {
			continue
		}
		for r := 0; r < c.rows(); r++ {
			fs = append(fs, c.fact(r))
		}
	}
	SortFacts(fs)
	return fs
}

// ADom returns adom(I), the set of all values occurring in facts of I.
func (i *Instance) ADom() ValueSet {
	s := make(ValueSet)
	for _, c := range i.rels {
		for _, id := range c.args {
			s.Add(Value(symbols.lookup(id)))
		}
	}
	return s
}

// Schema returns the minimal schema the instance is over.
func (i *Instance) Schema() Schema {
	s := make(Schema)
	for _, c := range i.rels {
		if c.rows() > 0 {
			s[symbols.lookup(c.rel)] = c.arity
		}
	}
	return s
}

// Restrict returns I|σ, the maximal subset of I over the schema σ.
func (i *Instance) Restrict(s Schema) *Instance {
	out := NewInstance()
	for _, c := range i.rels {
		if ar, ok := s.Arity(symbols.lookup(c.rel)); !ok || ar != c.arity {
			continue
		}
		dst := out.colFor(c.rel, c.arity)
		c.each(func(args []ID) bool {
			if dst.add(args) {
				out.n++
			}
			return true
		})
	}
	return out
}

// RestrictRel returns the subset of I whose facts use the given relation name.
func (i *Instance) RestrictRel(rel string) *Instance {
	id, _ := LookupValue(Value(rel)) // as in Rel
	out := NewInstance()
	for _, c := range i.rels {
		if c.rel == id {
			out.rels = append(out.rels, c.clone())
			out.n += c.rows()
		}
	}
	return out
}

// Union returns a fresh instance I ∪ J.
func (i *Instance) Union(j *Instance) *Instance {
	out := i.Clone()
	out.AddAll(j)
	return out
}

// Minus returns a fresh instance I \ J.
func (i *Instance) Minus(j *Instance) *Instance {
	out := NewInstance()
	for _, c := range i.rels {
		other := j.col(c.rel, c.arity)
		dst := out.colFor(c.rel, c.arity)
		c.each(func(args []ID) bool {
			if other == nil || !other.has(args) {
				if dst.add(args) {
					out.n++
				}
			}
			return true
		})
	}
	return out
}

// intersect returns a fresh instance I ∩ J.
func (i *Instance) intersect(j *Instance) *Instance {
	small, large := i, j
	if large.Len() < small.Len() {
		small, large = large, small
	}
	out := NewInstance()
	for _, c := range small.rels {
		other := large.col(c.rel, c.arity)
		if other == nil {
			continue
		}
		dst := out.colFor(c.rel, c.arity)
		c.each(func(args []ID) bool {
			if other.has(args) {
				if dst.add(args) {
					out.n++
				}
			}
			return true
		})
	}
	return out
}

// SubsetOf reports whether I ⊆ J.
func (i *Instance) SubsetOf(j *Instance) bool {
	if i.Len() > j.Len() {
		return false
	}
	for _, c := range i.rels {
		other := j.col(c.rel, c.arity)
		if other == nil && c.rows() > 0 {
			return false
		}
		ok := true
		c.each(func(args []ID) bool {
			if !other.has(args) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

// Equal reports whether both instances contain exactly the same facts.
func (i *Instance) Equal(j *Instance) bool {
	return i.Len() == j.Len() && i.SubsetOf(j)
}

// Clone returns an independent copy of the instance.
func (i *Instance) Clone() *Instance {
	out := &Instance{n: i.n}
	if len(i.rels) > 0 {
		out.rels = make([]column, len(i.rels))
	}
	for k := range i.rels {
		out.rels[k] = i.rels[k].clone()
	}
	return out
}

// Map returns the instance {f.Map(h) | f ∈ I}: the image of I under
// the value mapping h (a homomorphism application or a permutation).
func (i *Instance) Map(h map[Value]Value) *Instance {
	// Translate once to an ID-level mapping; identity entries are
	// dropped so the common no-op case stays cheap.
	hid := make(map[ID]ID, len(h))
	for from, to := range h {
		f, t := Intern(from), Intern(to)
		if f != t {
			hid[f] = t
		}
	}
	out := NewInstance()
	for _, c := range i.rels {
		dst := out.colFor(c.rel, c.arity)
		mapped := make([]ID, c.arity)
		c.each(func(args []ID) bool {
			for x, id := range args {
				if w, ok := hid[id]; ok {
					mapped[x] = w
				} else {
					mapped[x] = id
				}
			}
			if dst.add(mapped) {
				out.n++
			}
			return true
		})
	}
	return out
}

// String renders the instance as a sorted, brace-delimited fact list,
// c.g. "{E(a,b), E(b,c)}".
func (i *Instance) String() string {
	fs := i.Facts()
	parts := make([]string, len(fs))
	for n, f := range fs {
		parts[n] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
