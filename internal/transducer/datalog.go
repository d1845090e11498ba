package transducer

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// This file adapts Datalog¬ programs to transducer queries, making
// transducers definable declaratively — the paper's transducers are
// "relational transducers" whose four components are queries in some
// relational language, with (stratified) Datalog¬ the language used
// throughout the declarative-networking literature.

// datalogQuery wraps a stratified Datalog¬ program as a transducer
// query: the program is evaluated on the visible instance D (whose
// relations — input, output, message, memory and system — act as the
// program's edb), and the facts of the designated output relations,
// renamed through the optional alias map, form the result.
//
// The program's idb relations are scratch space: they must not collide
// with any schema relation visible in D.
func datalogQuery(p *datalog.Program, target fact.Schema, rename map[string]string) (Query, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.IsStratifiable() {
		return nil, fmt.Errorf("transducer: transducer queries must be stratifiable")
	}
	idb := p.IDB()
	outRels := make(map[string]string) // idb relation -> target relation
	for rel := range idb {
		tgt := rel
		if alias, ok := rename[rel]; ok {
			tgt = alias
		}
		if target.Has(tgt) {
			outRels[rel] = tgt
		}
	}
	if len(outRels) == 0 {
		return nil, fmt.Errorf("transducer: program derives no relation of the target schema %v (idb: %v)", target, idb)
	}

	return func(d *fact.Instance) (*fact.Instance, error) {
		// The program sees D as its edb; D must not contain idb facts.
		edb := fact.NewInstance()
		d.Each(func(f fact.Fact) bool {
			if !idb.Has(f.Rel()) {
				edb.Add(f)
			}
			return true
		})
		full, err := p.EvalStratified(edb, datalog.FixpointOptions{})
		if err != nil {
			return nil, err
		}
		out := fact.NewInstance()
		for rel, tgt := range outRels {
			for _, f := range full.Rel(rel) {
				out.Add(fact.FromTuple(tgt, f.Args()))
			}
		}
		return out, nil
	}, nil
}

// DatalogTransducer assembles a transducer from four Datalog¬ program
// sources (any may be empty, meaning the constant-empty query). Each
// program's idb relations matching the respective target schema (Out
// for out, Mem for ins and del, Msg for snd) provide that query's
// result.
func DatalogTransducer(schema Schema, outSrc, insSrc, delSrc, sndSrc string) (*Transducer, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	build := func(src string, target fact.Schema, what string) (Query, error) {
		if src == "" {
			return nil, nil
		}
		p, err := datalog.ParseProgram(src)
		if err != nil {
			return nil, fmt.Errorf("transducer: %s program: %w", what, err)
		}
		q, err := datalogQuery(p, target, nil)
		if err != nil {
			return nil, fmt.Errorf("transducer: %s program: %w", what, err)
		}
		return q, nil
	}
	out, err := build(outSrc, schema.Out, "output")
	if err != nil {
		return nil, err
	}
	ins, err := build(insSrc, schema.Mem, "insertion")
	if err != nil {
		return nil, err
	}
	del, err := build(delSrc, schema.Mem, "deletion")
	if err != nil {
		return nil, err
	}
	snd, err := build(sndSrc, schema.Msg, "send")
	if err != nil {
		return nil, err
	}
	return &Transducer{Schema: schema, Out: out, Ins: ins, Del: del, Snd: snd}, nil
}
