package ilog

import (
	"repro/internal/datalog"
)

// ParseProgram parses an ILOG¬ program in the conventional syntax
// extended with the invention symbol:
//
//	Id(*, x, y) :- E(x,y).
//	O(x,y)      :- Id(i, x, y).
//
// Plain Datalog¬ rules parse unchanged, so every Datalog¬ program is
// also a valid ILOG¬ program.
func ParseProgram(src string) (*Program, error) {
	rules, invents, err := datalog.ParseProgramWithInvention(src)
	if err != nil {
		return nil, err
	}
	p := newProgram()
	for i, r := range rules {
		p.Rules = append(p.Rules, Rule{
			Head:    r.Head,
			Invents: invents[i],
			Pos:     r.Pos,
			Neg:     r.Neg,
			Ineq:    r.Ineq,
		})
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParseProgram is like ParseProgram but panics on error.
func MustParseProgram(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}
