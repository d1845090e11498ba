package fact

import (
	"fmt"
	"sort"
)

// Schema is a database schema: a finite map from relation names to
// arities. All arities are at least one (the paper excludes nullary
// relations, Section 2).
type Schema map[string]int

// NewSchema builds a schema from alternating name/arity pairs declared
// as a map literal; it validates every arity.
func NewSchema(rels map[string]int) (Schema, error) {
	s := make(Schema, len(rels))
	for name, ar := range rels {
		if err := s.Declare(name, ar); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on invalid input. Intended for
// statically known schemas in tests and examples.
func MustSchema(rels map[string]int) Schema {
	s, err := NewSchema(rels)
	if err != nil {
		panic(err)
	}
	return s
}

// GraphSchema is the schema used throughout the paper's examples:
// a single binary edge relation E.
func GraphSchema() Schema {
	return Schema{"E": 2}
}

// Declare adds the relation name with the given arity. It is an error
// to declare an arity below one or to redeclare a name at a different
// arity.
func (s Schema) Declare(name string, arity int) error {
	if name == "" {
		return fmt.Errorf("schema: empty relation name")
	}
	if arity < 1 {
		return fmt.Errorf("schema: relation %s has arity %d; nullary or negative arities are not allowed", name, arity)
	}
	if prev, ok := s[name]; ok && prev != arity {
		return fmt.Errorf("schema: relation %s redeclared with arity %d (was %d)", name, arity, prev)
	}
	s[name] = arity
	return nil
}

// Has reports whether the schema declares the relation name.
func (s Schema) Has(name string) bool {
	_, ok := s[name]
	return ok
}

// Arity returns the arity of the relation and whether it is declared.
func (s Schema) Arity(name string) (int, bool) {
	ar, ok := s[name]
	return ar, ok
}

// Covers reports whether the fact is over this schema: its relation is
// declared and the arity matches.
func (s Schema) Covers(f Fact) bool {
	ar, ok := s[f.Rel()]
	return ok && ar == f.Arity()
}

// union returns a schema declaring the relations of both operands.
// Conflicting arities are an error.
func (s Schema) union(t Schema) (Schema, error) {
	u := s.Clone()
	for name, ar := range t {
		if err := u.Declare(name, ar); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Minus returns a schema with the relations of s that are not in t.
func (s Schema) Minus(t Schema) Schema {
	u := make(Schema)
	for name, ar := range s {
		if !t.Has(name) {
			u[name] = ar
		}
	}
	return u
}

// disjointNames reports whether the two schemas share no relation name.
func (s Schema) disjointNames(t Schema) bool {
	for name := range s {
		if t.Has(name) {
			return false
		}
	}
	return true
}

// Equal reports whether both schemas declare exactly the same relations
// at the same arities.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for name, ar := range s {
		if tar, ok := t[name]; !ok || tar != ar {
			return false
		}
	}
	return true
}

// Names returns the declared relation names in sorted order.
func (s Schema) Names() []string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Clone returns an independent copy of the schema.
func (s Schema) Clone() Schema {
	c := make(Schema, len(s))
	for name, ar := range s {
		c[name] = ar
	}
	return c
}

// String renders the schema as "name/arity" pairs in sorted order.
func (s Schema) String() string {
	names := s.Names()
	out := ""
	for i, name := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s/%d", name, s[name])
	}
	return "{" + out + "}"
}
