package fact

import "testing"

func TestSchemaDeclare(t *testing.T) {
	s := make(Schema)
	if err := s.Declare("E", 2); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	if err := s.Declare("E", 2); err != nil {
		t.Errorf("re-declaring same arity should be fine: %v", err)
	}
	if err := s.Declare("E", 3); err == nil {
		t.Error("conflicting arity redeclaration should fail")
	}
	if err := s.Declare("R", 0); err == nil {
		t.Error("nullary relation should be rejected")
	}
	if err := s.Declare("", 1); err == nil {
		t.Error("empty relation name should be rejected")
	}
}

func TestNewSchemaValidates(t *testing.T) {
	if _, err := NewSchema(map[string]int{"R": 0}); err == nil {
		t.Error("NewSchema should reject arity 0")
	}
	s, err := NewSchema(map[string]int{"E": 2, "V": 1})
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if !s.Has("E") || !s.Has("V") || s.Has("X") {
		t.Error("Has misbehaves")
	}
}

func TestSchemaCovers(t *testing.T) {
	s := MustSchema(map[string]int{"E": 2})
	if !s.Covers(New("E", "a", "b")) {
		t.Error("E(a,b) should be covered by {E/2}")
	}
	if s.Covers(New("E", "a")) {
		t.Error("E(a) has wrong arity for {E/2}")
	}
	if s.Covers(New("F", "a", "b")) {
		t.Error("F not declared")
	}
}

func TestSchemaUnionMinus(t *testing.T) {
	a := MustSchema(map[string]int{"E": 2, "V": 1})
	b := MustSchema(map[string]int{"V": 1, "T": 3})
	u, err := a.union(b)
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if len(u) != 3 {
		t.Errorf("Union size = %d, want 3", len(u))
	}
	if _, err := a.union(MustSchema(map[string]int{"E": 3})); err == nil {
		t.Error("Union with conflicting arity should fail")
	}
	m := a.Minus(b)
	if len(m) != 1 || !m.Has("E") {
		t.Errorf("Minus = %v", m)
	}
	if a.disjointNames(b) {
		t.Error("schemas sharing V reported disjoint")
	}
	if !a.disjointNames(MustSchema(map[string]int{"Z": 1})) {
		t.Error("disjoint schemas reported overlapping")
	}
}

func TestSchemaEqualAndString(t *testing.T) {
	a := MustSchema(map[string]int{"E": 2, "V": 1})
	if !a.Equal(MustSchema(map[string]int{"V": 1, "E": 2})) {
		t.Error("Equal should be order-insensitive")
	}
	if a.Equal(MustSchema(map[string]int{"E": 2})) {
		t.Error("unequal schemas reported Equal")
	}
	if got := a.String(); got != "{E/2, V/1}" {
		t.Errorf("String = %q", got)
	}
	if got := GraphSchema().String(); got != "{E/2}" {
		t.Errorf("GraphSchema = %q", got)
	}
}

func TestSchemaCloneIndependent(t *testing.T) {
	a := MustSchema(map[string]int{"E": 2})
	c := a.Clone()
	_ = c.Declare("X", 1)
	if a.Has("X") {
		t.Error("Clone shares storage")
	}
}
