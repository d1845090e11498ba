package core

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/transducer"
)

// buildAbsence constructs the Theorem 4.3 strategy (class Mdistinct).
// Every node broadcasts its local input facts and, for every candidate
// fact over its MyAdom that it is policy-responsible for but does not
// hold, an explicit absence. A node whose MyAdom is complete — every
// candidate fact over MyAdom is known present or known absent —
// evaluates the query on its collected facts I'. Because the rest of
// the input is domain-distinct from I', Q(I') ⊆ Q(I) for every
// Q ∈ Mdistinct, so no wrong facts are ever output; and since every
// fact and every absence is eventually everywhere (node identifiers
// travel in hello announcements), every node eventually computes Q(I).
//
// Out, Ins and Snd are the Section 4.1.2 definition. Delta is the same
// transition read off the node's parts and the System view by probe
// (DESIGN.md §16), walking only what the node's memory has not seen; it
// evaluates the query at a complete transition where K grew.
func buildAbsence(q monotone.Query, in, out fact.Schema) (*transducer.Transducer, error) {
	msg := fact.MustSchema(map[string]int{relHello: 1})
	mem := fact.MustSchema(map[string]int{relVal: 1, relHelloS: 1})
	for rel, ar := range in {
		msg[relFwd(rel)] = ar
		msg[relAbs(rel)] = ar
		mem[relGot(rel)] = ar
		mem[relSent(rel)] = ar
		mem[relAbsGot(rel)] = ar
		mem[relAbsSent(rel)] = ar
	}
	sch := transducer.Schema{In: in, Out: out, Msg: msg, Mem: mem}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	// The relations derived from one input relation, interned for the
	// insert-only form; byRel finds them from a local fact, byMsg from a
	// delivered one.
	type ids struct {
		rel, fwd, got, sent, abs, absGot, absSent fact.ID
		arity                                     int
	}
	var rels []*ids
	byRel, byMsg := make(map[fact.ID]*ids), make(map[fact.ID]*ids)
	for _, rel := range inputRels(in) {
		r := &ids{fact.InternString(rel), fact.InternString(relFwd(rel)), fact.InternString(relGot(rel)), fact.InternString(relSent(rel)),
			fact.InternString(relAbs(rel)), fact.InternString(relAbsGot(rel)), fact.InternString(relAbsSent(rel)), in[rel]}
		rels = append(rels, r)
		byRel[r.rel], byMsg[r.fwd], byMsg[r.abs] = r, r, r
	}
	hello, val, helloS := fact.InternString(relHello), fact.InternString(relVal), fact.InternString(relHelloS)
	known := newKnown(in, relGot, relFwd)
	eval := func(k *fact.Instance) (*fact.Instance, error) {
		res, err := q.Eval(k)
		if err != nil {
			return nil, fmt.Errorf("core: absence strategy evaluating %s: %w", q.Name(), err)
		}
		return res, nil
	}

	// detectAbsences lists the candidate facts over MyAdom that the
	// node is responsible for and that are missing from its local
	// input fragment; those facts are certainly absent from the whole
	// input (the policy would have assigned them here).
	detectAbsences := func(d *fact.Instance) []fact.Fact {
		adom := myAdom(d)
		var absent []fact.Fact
		for _, rel := range inputRels(in) {
			ar := in[rel]
			local := d.RestrictRel(rel)
			for _, tup := range allTuples(adom, ar) {
				if !d.Has(fact.FromTuple(transducer.PolicyRel(rel), tup)) {
					continue
				}
				if !local.Has(fact.FromTuple(rel, tup)) {
					absent = append(absent, fact.FromTuple(rel, tup))
				}
			}
		}
		return absent
	}

	// complete reports whether MyAdom is complete: every candidate
	// fact over MyAdom is known present (collected) or known absent
	// (stored, just delivered, or locally detectable).
	complete := func(d *fact.Instance, k *fact.Instance) bool {
		adom := myAdom(d)
		for _, rel := range inputRels(in) {
			ar := in[rel]
			local := d.RestrictRel(rel)
			for _, tup := range allTuples(adom, ar) {
				f := fact.FromTuple(rel, tup)
				if k.Has(f) {
					continue
				}
				if d.Has(fact.FromTuple(relAbsGot(rel), tup)) || d.Has(fact.FromTuple(relAbs(rel), tup)) {
					continue
				}
				if d.Has(fact.FromTuple(transducer.PolicyRel(rel), tup)) && !local.Has(f) {
					continue // locally detectable absence
				}
				return false
			}
		}
		return true
	}

	t := &transducer.Transducer{
		Schema: sch,
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			k := known.of(d)
			if !complete(d, k) {
				return fact.NewInstance(), nil
			}
			return eval(k)
		},
		Ins: func(d *fact.Instance) (*fact.Instance, error) {
			ins := fact.NewInstance()
			for rel := range in {
				for _, f := range d.Rel(relFwd(rel)) {
					ins.Add(fact.FromTuple(relGot(rel), f.Args()))
				}
				for _, f := range d.Rel(relAbs(rel)) {
					ins.Add(fact.FromTuple(relAbsGot(rel), f.Args()))
				}
				for _, f := range d.Rel(rel) {
					ins.Add(fact.FromTuple(relSent(rel), f.Args()))
				}
			}
			for _, f := range detectAbsences(d) {
				ins.Add(fact.FromTuple(relAbsGot(f.Rel()), f.Args()))
				ins.Add(fact.FromTuple(relAbsSent(f.Rel()), f.Args()))
			}
			// Remember values seen in hello announcements, and mark
			// our own hello as sent.
			for _, f := range d.Rel(relHello) {
				ins.Add(fact.FromTuple(relVal, f.Args()))
			}
			if id, ok := selfID(d); ok {
				ins.Add(fact.New(relHelloS, id))
			}
			return ins, nil
		},
		Snd: func(d *fact.Instance) (*fact.Instance, error) {
			snd := fact.NewInstance()
			for rel := range in {
				for _, f := range d.Rel(rel) {
					if !d.Has(fact.FromTuple(relSent(rel), f.Args())) {
						snd.Add(fact.FromTuple(relFwd(rel), f.Args()))
					}
				}
			}
			for _, f := range detectAbsences(d) {
				if !d.Has(fact.FromTuple(relAbsSent(f.Rel()), f.Args())) {
					snd.Add(fact.FromTuple(relAbs(f.Rel()), f.Args()))
				}
			}
			if id, ok := selfID(d); ok && !d.Has(fact.New(relHelloS, id)) {
				snd.Add(fact.New(relHello, id))
			}
			return snd, nil
		},
		Delta: func(local, state, m *fact.Instance, sys transducer.System, acc *transducer.Delta) error {
			d := delta{acc, state}
			base := sys.Base()
			memo := base.Memo()
			// The hello and the local facts go out once per memory.
			if memo.Open == nil {
				memo.Open = make([][]fact.ID, len(rels))
				if id, ok := sys.Id(); ok {
					d.insSend(helloS, hello, []fact.ID{fact.Intern(id)})
				}
				local.EachIDs(func(rel fact.ID, args []fact.ID) bool {
					if r, ok := byRel[rel]; ok {
						d.insSend(r.sent, r.fwd, args)
					}
					return true
				})
			}
			k := 0 // |K| once the transition's Xg_ rows are in
			m.EachIDs(func(rel fact.ID, args []fact.ID) bool {
				if rel == hello {
					d.ins(val, args)
				} else if r, ok := byMsg[rel]; ok {
					if rel == r.fwd {
						if d.ins(r.got, args) {
							k++
						}
					} else {
						d.ins(r.absGot, args)
					}
				}
				return true
			})
			// A candidate is classified once, when it has a new value, as
			// detectAbsences and complete do; the open ones wait.
			complete := true
			for i, r := range rels {
				k += state.Count(r.got, r.arity)
				fact.EachNewTuple(base.MyAdom(), base.New(), r.arity, func(t []fact.ID) bool {
					switch {
					case local.HasIDs(r.rel, t):
					case base.Responsible(r.rel, t):
						d.ins(r.absGot, t)
						d.insSend(r.absSent, r.abs, t)
					default:
						memo.Open[i] = append(memo.Open[i], t...)
					}
					return true
				})
				if complete {
					memo.Open[i], complete = settle(memo.Open[i], r.arity,
						func(t []fact.ID) bool { return state.HasIDs(r.got, t) || state.HasIDs(r.absGot, t) },
						func(t []fact.ID) bool { return m.HasIDs(r.fwd, t) || m.HasIDs(r.abs, t) })
				}
			}
			if !complete || k == memo.K {
				return nil
			}
			memo.K = k
			return d.evalInto(eval, known, local, m)
		},
	}
	return t, nil
}
