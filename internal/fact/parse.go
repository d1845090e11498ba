package fact

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file implements a small textual format for facts and instances,
// used by the CLI tools, testdata files, and tests:
//
//	E(a,b)
//	E(b,c)   # comments run to end of line
//	Move(n1, n2)
//
// Relation names start with an upper- or lower-case letter and continue
// with letters, digits and underscores. Values are bare identifiers
// (letters, digits, '_', '-', '.') or double-quoted strings.

// ParseFact parses a single fact such as "E(a,b)".
func ParseFact(s string) (Fact, error) {
	p := &parser{input: s}
	f, err := p.fact()
	if err != nil {
		return Fact{}, err
	}
	p.skipSpace()
	if !p.eof() {
		return Fact{}, fmt.Errorf("fact %q: trailing input at offset %d", s, p.pos)
	}
	return f, nil
}

// ParseFacts parses a list of textual facts, failing on the first bad
// one. It is the batch entry point the serving protocol uses for
// request fact lists; a nil error guarantees one fact per input string.
func ParseFacts(strs []string) ([]Fact, error) {
	out := make([]Fact, 0, len(strs))
	for _, s := range strs {
		f, err := ParseFact(s)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// MustParseFact is like ParseFact but panics on error; for tests and examples.
func MustParseFact(s string) Fact {
	f, err := ParseFact(s)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseInstance parses a newline- or comma-separated list of facts,
// with '#' and '%' line comments, into an instance.
func ParseInstance(s string) (*Instance, error) {
	out := NewInstance()
	p := &parser{input: s}
	for {
		p.skipSeparators()
		if p.eof() {
			return out, nil
		}
		f, err := p.fact()
		if err != nil {
			return nil, err
		}
		out.Add(f)
	}
}

// MustParseInstance is like ParseInstance but panics on error.
func MustParseInstance(s string) *Instance {
	i, err := ParseInstance(s)
	if err != nil {
		panic(err)
	}
	return i
}

type parser struct {
	input string
	pos   int
}

func (p *parser) eof() bool { return p.pos >= len(p.input) }

func (p *parser) peek() byte { return p.input[p.pos] }

func (p *parser) skipSpace() {
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' {
			p.pos++
			continue
		}
		return
	}
}

// skipSeparators also consumes newlines, commas between facts, and comments.
func (p *parser) skipSeparators() {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' || c == ';':
			p.pos++
		case c == '#' || c == '%':
			for !p.eof() && p.peek() != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *parser) fact() (Fact, error) {
	p.skipSpace()
	rel, err := p.ident("relation name")
	if err != nil {
		return Fact{}, err
	}
	p.skipSpace()
	if p.eof() || p.peek() != '(' {
		return Fact{}, fmt.Errorf("fact: expected '(' after %q at offset %d", rel, p.pos)
	}
	p.pos++
	var args []Value
	for {
		p.skipSpace()
		v, err := p.value()
		if err != nil {
			return Fact{}, err
		}
		args = append(args, v)
		p.skipSpace()
		if p.eof() {
			return Fact{}, fmt.Errorf("fact: unterminated argument list for %q", rel)
		}
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			return New(rel, args...), nil
		default:
			return Fact{}, fmt.Errorf("fact: unexpected character %q at offset %d", p.peek(), p.pos)
		}
	}
}

func (p *parser) ident(what string) (string, error) {
	start := p.pos
	for !p.eof() {
		c := rune(p.peek())
		if unicode.IsLetter(c) || c == '_' || (p.pos > start && unicode.IsDigit(c)) {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", fmt.Errorf("parse: expected %s at offset %d", what, start)
	}
	return p.input[start:p.pos], nil
}

func (p *parser) value() (Value, error) {
	if p.eof() {
		return "", fmt.Errorf("parse: expected value at end of input")
	}
	if p.peek() == '"' {
		return p.quoted()
	}
	start := p.pos
	for !p.eof() {
		// By rune, as isBareValue decides: a value printed bare parses back.
		c, size := utf8.DecodeRuneInString(p.input[p.pos:])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' || c == '.' {
			p.pos += size
			continue
		}
		break
	}
	if p.pos == start {
		return "", fmt.Errorf("parse: expected value at offset %d", start)
	}
	return Value(p.input[start:p.pos]), nil
}

func (p *parser) quoted() (Value, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case '"':
			p.pos++
			return Value(b.String()), nil
		case '\\':
			p.pos++
			if p.eof() {
				return "", fmt.Errorf("parse: unterminated escape in quoted value")
			}
			b.WriteByte(p.peek())
			p.pos++
		case 0:
			return "", fmt.Errorf("parse: NUL byte not allowed in values")
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", fmt.Errorf("parse: unterminated quoted value")
}
