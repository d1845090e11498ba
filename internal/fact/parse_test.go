package fact

import (
	"testing"
)

func TestParseFact(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"E(a,b)", "E(a,b)"},
		{"  E( a , b )  ", "E(a,b)"},
		{"Move(n1,n2)", "Move(n1,n2)"},
		{`R("hello world", x)`, `R("hello world",x)`},
		{`R("quo\"te")`, `R("quo\"te")`},
		{"T(a,b,c)", "T(a,b,c)"},
		{"lower(x)", "lower(x)"},
		{"R(v-1, v.2, v_3)", "R(v-1,v.2,v_3)"},
		// Bare letters beyond ASCII print bare, so they parse bare.
		{`E(é,"日本")`, "E(é,日本)"},
		{"E(\"a\u2028b\",\"<&>\")", "E(\"a\u2028b\",\"<&>\")"},
	}
	for _, c := range cases {
		f, err := ParseFact(c.in)
		if err != nil {
			t.Errorf("ParseFact(%q) error: %v", c.in, err)
			continue
		}
		if f.String() != c.want {
			t.Errorf("ParseFact(%q) = %q, want %q", c.in, f.String(), c.want)
		}
	}
}

func TestParseFactErrors(t *testing.T) {
	bad := []string{
		"",
		"E",
		"E(",
		"E()",
		"E(a",
		"E(a,)",
		"E(a) extra",
		"(a,b)",
		"E(a,,b)",
		`E("unterminated)`,
		"1E(a)",
	}
	for _, s := range bad {
		if _, err := ParseFact(s); err == nil {
			t.Errorf("ParseFact(%q) should fail", s)
		}
	}
}

func TestParseInstance(t *testing.T) {
	src := `
		# a small graph
		E(a,b)
		E(b,c), E(c,d)   % trailing comment
		E(a,b)           # duplicate folded by set semantics
	`
	i, err := ParseInstance(src)
	if err != nil {
		t.Fatalf("ParseInstance error: %v", err)
	}
	if i.Len() != 3 {
		t.Errorf("Len = %d, want 3: %v", i.Len(), i)
	}
}

func TestParseInstanceEmpty(t *testing.T) {
	i, err := ParseInstance("  \n # only a comment\n")
	if err != nil || !i.Empty() {
		t.Errorf("empty input: i=%v err=%v", i, err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	orig := inst("E(a,b)", "E(b,c)", "R(x,y,z)", "S(w)")
	// String() wraps the fact list in braces; strip them before re-parsing.
	s := orig.String()
	parsed, err := ParseInstance(s[1 : len(s)-1])
	if err != nil {
		t.Fatalf("round-trip parse error: %v", err)
	}
	if !parsed.Equal(orig) {
		t.Errorf("round trip: got %v, want %v", parsed, orig)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseFact should panic on bad input")
		}
	}()
	MustParseFact("not a fact")
}
