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
	complete := func(d *fact.Instance, known *fact.Instance) bool {
		adom := myAdom(d)
		for _, rel := range inputRels(in) {
			ar := in[rel]
			local := d.RestrictRel(rel)
			for _, tup := range allTuples(adom, ar) {
				f := fact.FromTuple(rel, tup)
				if known.Has(f) {
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
			known := knownFacts(in, d)
			if !complete(d, known) {
				return fact.NewInstance(), nil
			}
			res, err := q.Eval(known)
			if err != nil {
				return nil, fmt.Errorf("core: absence strategy evaluating %s: %w", q.Name(), err)
			}
			return res, nil
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
	}
	return t, nil
}
