package datalog

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/fact"
)

// This file implements a parser for the conventional rule syntax used
// in the paper, e.g.:
//
//	T(x,y) :- R(x,y), !S(y), x != y.
//	O(x)   :- not D(x), Adom(x).
//
// Plain identifiers are variables (the paper's rules use lowercase
// variables like x, y, z). Constants are double-quoted strings or
// tokens beginning with a digit. Negation is written "!", "¬" or
// "not"; inequality "!=", "≠" or "<>"; the rule arrow ":-" or "<-";
// rules end with ".". Comments run from '#' or '%' to end of line.

// ParseProgram parses a whole program.
func ParseProgram(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &ruleParser{toks: toks}
	prog := NewProgram()
	for !p.eof() {
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParseProgram is like ParseProgram but panics on error; for
// statically known programs in tests and examples.
func MustParseProgram(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseProgramWithInvention parses a program in ILOG¬ syntax, where a
// rule head may carry the invention symbol as its first argument —
// "Id(*, x, y) :- E(x,y)." or "Id(*) :- V(x)." — and returns the rules
// with the symbol stripped plus a parallel slice marking which rules
// invent. Rules and schema are NOT validated here (invention relations
// legitimately appear at full arity in bodies); the ilog package
// validates the assembled program.
func ParseProgramWithInvention(src string) ([]Rule, []bool, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &ruleParser{toks: toks, allowInvention: true}
	var rules []Rule
	var invents []bool
	for !p.eof() {
		r, err := p.rule()
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, r)
		invents = append(invents, p.lastInvention)
	}
	return rules, invents, nil
}

// ParseRule parses a single rule.
func ParseRule(src string) (Rule, error) {
	p, err := ParseProgram(src)
	if err != nil {
		return Rule{}, err
	}
	if len(p.Rules) != 1 {
		return Rule{}, fmt.Errorf("datalog: expected exactly one rule, got %d", len(p.Rules))
	}
	return p.Rules[0], nil
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokConst
	tokArrow  // :- or <-
	tokLParen // (
	tokRParen // )
	tokComma  // ,
	tokDot    // .
	tokBang   // ! or ¬ or not
	tokNeq    // != or ≠ or <>
	tokStar   // * (ILOG¬ invention symbol, head position only)
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		r, size := utf8.DecodeRuneInString(src[i:])
		switch {
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			i += size
		case r == '#' || r == '%':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case r == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case r == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case r == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case r == '.':
			toks = append(toks, token{tokDot, ".", i})
			i++
		case r == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case r == '¬':
			toks = append(toks, token{tokBang, "¬", i})
			i += size
		case r == '≠':
			toks = append(toks, token{tokNeq, "≠", i})
			i += size
		case r == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokNeq, "!=", i})
				i += 2
			} else {
				toks = append(toks, token{tokBang, "!", i})
				i++
			}
		case r == '<':
			if i+1 < len(src) && src[i+1] == '-' {
				toks = append(toks, token{tokArrow, "<-", i})
				i += 2
			} else if i+1 < len(src) && src[i+1] == '>' {
				toks = append(toks, token{tokNeq, "<>", i})
				i += 2
			} else {
				return nil, fmt.Errorf("datalog: unexpected '<' at offset %d", i)
			}
		case r == ':':
			if i+1 < len(src) && src[i+1] == '-' {
				toks = append(toks, token{tokArrow, ":-", i})
				i += 2
			} else {
				return nil, fmt.Errorf("datalog: unexpected ':' at offset %d", i)
			}
		case r == '"':
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				b.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("datalog: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokConst, b.String(), i})
			i = j + 1
		case unicode.IsDigit(r):
			j := i
			for j < len(src) && (isIdentRune(rune(src[j])) || src[j] == '.') {
				// A digit-leading token is a constant; allow dots for
				// decimals but stop before a dot that ends the rule
				// (digit not following).
				if src[j] == '.' && (j+1 >= len(src) || !unicode.IsDigit(rune(src[j+1]))) {
					break
				}
				j++
			}
			toks = append(toks, token{tokConst, src[i:j], i})
			i = j
		case unicode.IsLetter(r) || r == '_':
			j := i
			for j < len(src) {
				rr, sz := utf8.DecodeRuneInString(src[j:])
				if !isIdentRune(rr) {
					break
				}
				j += sz
			}
			word := src[i:j]
			if word == "not" {
				toks = append(toks, token{tokBang, "not", i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		default:
			return nil, fmt.Errorf("datalog: unexpected character %q at offset %d", r, i)
		}
	}
	return toks, nil
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

type ruleParser struct {
	toks []token
	i    int
	// allowInvention accepts the ILOG¬ invention symbol '*' as the
	// first argument of head atoms; lastInvention records whether the
	// most recently parsed rule used it.
	allowInvention bool
	lastInvention  bool
}

func (p *ruleParser) eof() bool { return p.i >= len(p.toks) }

func (p *ruleParser) peek() (token, bool) {
	if p.eof() {
		return token{}, false
	}
	return p.toks[p.i], true
}

func (p *ruleParser) expect(k tokKind, what string) (token, error) {
	t, ok := p.peek()
	if !ok {
		return token{}, fmt.Errorf("datalog: expected %s at end of input", what)
	}
	if t.kind != k {
		return token{}, fmt.Errorf("datalog: expected %s, got %q at offset %d", what, t.text, t.pos)
	}
	p.i++
	return t, nil
}

func (p *ruleParser) rule() (Rule, error) {
	head, err := p.headAtom()
	if err != nil {
		return Rule{}, err
	}
	if _, err := p.expect(tokArrow, `":-"`); err != nil {
		return Rule{}, err
	}
	var r Rule
	r.Head = head
	for {
		t, ok := p.peek()
		if !ok {
			return Rule{}, fmt.Errorf("datalog: unterminated rule body (missing '.')")
		}
		switch t.kind {
		case tokBang:
			p.i++
			a, err := p.atom()
			if err != nil {
				return Rule{}, err
			}
			r.Neg = append(r.Neg, a)
		case tokIdent, tokConst:
			// Either an atom R(...) or an inequality "x != y".
			if t.kind == tokIdent && p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tokLParen {
				a, err := p.atom()
				if err != nil {
					return Rule{}, err
				}
				r.Pos = append(r.Pos, a)
			} else {
				q, err := p.inequality()
				if err != nil {
					return Rule{}, err
				}
				r.Ineq = append(r.Ineq, q)
			}
		default:
			return Rule{}, fmt.Errorf("datalog: unexpected %q in rule body at offset %d", t.text, t.pos)
		}
		t, ok = p.peek()
		if !ok {
			return Rule{}, fmt.Errorf("datalog: unterminated rule (missing '.')")
		}
		switch t.kind {
		case tokComma:
			p.i++
		case tokDot:
			p.i++
			return r, nil
		default:
			return Rule{}, fmt.Errorf("datalog: expected ',' or '.', got %q at offset %d", t.text, t.pos)
		}
	}
}

// headAtom parses a head atom, accepting the invention symbol '*' as
// the first argument when allowInvention is set: "Id(*, x, y)" or
// "Id(*)". The invention symbol is stripped from the returned atom and
// recorded in lastInvention.
func (p *ruleParser) headAtom() (Atom, error) {
	p.lastInvention = false
	name, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return Atom{}, err
	}
	if _, err := p.expect(tokLParen, `"("`); err != nil {
		return Atom{}, err
	}
	if tk, ok := p.peek(); ok && tk.kind == tokStar {
		if !p.allowInvention {
			return Atom{}, fmt.Errorf("datalog: invention symbol '*' at offset %d (only valid in ILOG¬ programs)", tk.pos)
		}
		p.i++
		p.lastInvention = true
		tk, ok = p.peek()
		if !ok {
			return Atom{}, fmt.Errorf("datalog: unterminated invention head %s", name.text)
		}
		switch tk.kind {
		case tokRParen: // "Id(*)"
			p.i++
			return Atom{Rel: name.text}, nil
		case tokComma:
			p.i++
		default:
			return Atom{}, fmt.Errorf("datalog: expected ',' or ')' after '*', got %q at offset %d", tk.text, tk.pos)
		}
	}
	return p.atomArgs(name.text)
}

func (p *ruleParser) atom() (Atom, error) {
	name, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return Atom{}, err
	}
	if _, err := p.expect(tokLParen, `"("`); err != nil {
		return Atom{}, err
	}
	return p.atomArgs(name.text)
}

// atomArgs parses the argument list after the opening parenthesis.
func (p *ruleParser) atomArgs(name string) (Atom, error) {
	var args []Term
	for {
		t, err := p.term()
		if err != nil {
			return Atom{}, err
		}
		args = append(args, t)
		tk, ok := p.peek()
		if !ok {
			return Atom{}, fmt.Errorf("datalog: unterminated atom %s", name)
		}
		switch tk.kind {
		case tokComma:
			p.i++
		case tokRParen:
			p.i++
			return Atom{Rel: name, Args: args}, nil
		default:
			return Atom{}, fmt.Errorf("datalog: expected ',' or ')', got %q at offset %d", tk.text, tk.pos)
		}
	}
}

func (p *ruleParser) term() (Term, error) {
	t, ok := p.peek()
	if !ok {
		return Term{}, fmt.Errorf("datalog: expected term at end of input")
	}
	switch t.kind {
	case tokIdent:
		p.i++
		return V(t.text), nil
	case tokConst:
		p.i++
		return Term{Const: fact.Value(t.text)}, nil
	default:
		return Term{}, fmt.Errorf("datalog: expected term, got %q at offset %d", t.text, t.pos)
	}
}

func (p *ruleParser) inequality() (Inequality, error) {
	a, err := p.term()
	if err != nil {
		return Inequality{}, err
	}
	if _, err := p.expect(tokNeq, `"!="`); err != nil {
		return Inequality{}, err
	}
	b, err := p.term()
	if err != nil {
		return Inequality{}, err
	}
	return Inequality{A: a, B: b}, nil
}
