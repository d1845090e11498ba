package core

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/transducer"
)

// buildDomainRequest constructs the Theorem 4.4 strategy (class
// Mdisjoint) for domain-guided distribution policies. Every node
// announces the active domain of its local fragment (plus its own
// identifier). For each known value a it is not responsible for, a
// node x sends the request Xreq(x, a); any node responsible for a
// answers with every local input fact containing a (Xr_R(x, a, ā)),
// x acknowledges each received fact (Xk_R(x, a, ā)), and once the
// responsible node has seen acknowledgments for everything it sent it
// issues Xok(x, a). A node is complete when every value in its MyAdom
// is either its own responsibility (domain guidance then guarantees it
// already holds every input fact containing the value) or covered by
// an OK. Its collected facts I' then satisfy
// I' = {f ∈ I | adom(f) ∩ MyAdom ≠ ∅}, the rest of the input is
// domain-disjoint from I', and Q(I') ⊆ Q(I) for every Q ∈ Mdisjoint.
func buildDomainRequest(q monotone.Query, in, out fact.Schema) (*transducer.Transducer, error) {
	msg := fact.MustSchema(map[string]int{relHello: 1, relAnn: 1, relReq: 2, relOk: 2})
	mem := fact.MustSchema(map[string]int{
		relVal: 1, relHelloS: 1, relAnnS: 1, relReqS: 1, relOkGot: 1,
		relReqG(): 2, relOkS(): 2,
	})
	for rel, ar := range in {
		msg[relResp(rel)] = ar + 2
		msg[relAck(rel)] = ar + 2
		mem[relGot(rel)] = ar
		mem[relRespS(rel)] = ar + 2
		mem[relAckG(rel)] = ar + 2
		mem[relAckS(rel)] = ar + 2
	}
	sch := transducer.Schema{In: in, Out: out, Msg: msg, Mem: mem}
	if err := sch.Validate(); err != nil {
		return nil, err
	}

	// localADom returns the active domain of the node's input fragment.
	localADom := func(d *fact.Instance) fact.ValueSet {
		s := make(fact.ValueSet)
		for rel := range in {
			for _, f := range d.Rel(rel) {
				s.AddAll(f.ADom())
			}
		}
		return s
	}

	// pendingRequests lists the (requester, value) pairs visible at
	// this node (stored or just delivered) for which it is responsible.
	pendingRequests := func(d *fact.Instance) [][2]fact.Value {
		seen := make(map[[2]fact.Value]bool)
		var reqs [][2]fact.Value
		collect := func(f fact.Fact) {
			pair := [2]fact.Value{f.Arg(0), f.Arg(1)}
			if !seen[pair] && responsibleForValue(d, in, pair[1]) {
				seen[pair] = true
				reqs = append(reqs, pair)
			}
		}
		for _, f := range d.Rel(relReq) {
			collect(f)
		}
		for _, f := range d.Rel(relReqG()) {
			collect(f)
		}
		return reqs
	}

	// owedResponse identifies one response message this node owes a
	// requester: the input relation it concerns and the message
	// arguments (requester, value, fact tuple).
	type owedResponse struct {
		rel  string
		args fact.Tuple
	}

	// respFactsFor lists the responses this node owes the requester
	// for value a: one per local input fact containing a.
	respFactsFor := func(d *fact.Instance, requester, a fact.Value) []owedResponse {
		var resp []owedResponse
		for rel := range in {
			for _, f := range d.Rel(rel) {
				if f.ADom().Has(a) {
					args := append(fact.Tuple{requester, a}, f.Args()...)
					resp = append(resp, owedResponse{rel: rel, args: args})
				}
			}
		}
		return resp
	}

	// complete reports whether every value in MyAdom is covered: the
	// node is responsible for it, or an OK was stored, or an OK
	// addressed to this node is being delivered right now.
	complete := func(d *fact.Instance) bool {
		id, hasID := selfID(d)
		okNow := make(fact.ValueSet)
		if hasID {
			for _, f := range d.Rel(relOk) {
				if f.Arg(0) == id {
					okNow.Add(f.Arg(1))
				}
			}
		}
		for _, a := range myAdom(d) {
			if responsibleForValue(d, in, a) {
				continue
			}
			if d.Has(fact.New(relOkGot, a)) || okNow.Has(a) {
				continue
			}
			return false
		}
		return true
	}

	t := &transducer.Transducer{
		Schema: sch,
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			if !complete(d) {
				return fact.NewInstance(), nil
			}
			known := knownFacts(in, d)
			res, err := q.Eval(known)
			if err != nil {
				return nil, fmt.Errorf("core: domain-request strategy evaluating %s: %w", q.Name(), err)
			}
			return res, nil
		},
		Ins: func(d *fact.Instance) (*fact.Instance, error) {
			ins := fact.NewInstance()
			id, hasID := selfID(d)

			// Persist announced values and hello identifiers.
			for _, f := range d.Rel(relAnn) {
				ins.Add(fact.FromTuple(relVal, f.Args()))
			}
			for _, f := range d.Rel(relHello) {
				ins.Add(fact.FromTuple(relVal, f.Args()))
			}
			// Mark our announcements as sent.
			for a := range localADom(d) {
				ins.Add(fact.New(relAnnS, a))
			}
			if hasID {
				ins.Add(fact.New(relHelloS, id))
			}

			// Requester side: store responses addressed to us, mark
			// their acknowledgments sent; store received OKs.
			for rel, ar := range in {
				for _, f := range d.Rel(relResp(rel)) {
					if !hasID || f.Arg(0) != id {
						continue
					}
					args := f.Args()
					ins.Add(fact.FromTuple(relGot(rel), args[2:2+ar]))
					ins.Add(fact.FromTuple(relAckS(rel), args))
				}
			}
			for _, f := range d.Rel(relOk) {
				if hasID && f.Arg(0) == id {
					ins.Add(fact.New(relOkGot, f.Arg(1)))
				}
			}
			// Mark requests sent for uncovered values (requests carry
			// our identifier, so they need Id).
			if hasID {
				for _, a := range myAdom(d) {
					if !responsibleForValue(d, in, a) {
						ins.Add(fact.New(relReqS, a))
					}
				}
			}

			// Responder side: store requests, sent responses and
			// received acknowledgments; mark OKs sent.
			for _, f := range d.Rel(relReq) {
				ins.Add(fact.FromTuple(relReqG(), f.Args()))
			}
			for _, pair := range pendingRequests(d) {
				requester, a := pair[0], pair[1]
				acked := true
				for _, rf := range respFactsFor(d, requester, a) {
					ins.Add(fact.FromTuple(relRespS(rf.rel), rf.args))
					if !d.Has(fact.FromTuple(relAckG(rf.rel), rf.args)) {
						acked = false
					}
				}
				if acked {
					ins.Add(fact.New(relOkS(), requester, a))
				}
			}
			for rel := range in {
				for _, f := range d.Rel(relAck(rel)) {
					ins.Add(fact.FromTuple(relAckG(rel), f.Args()))
				}
			}
			return ins, nil
		},
		Snd: func(d *fact.Instance) (*fact.Instance, error) {
			snd := fact.NewInstance()
			id, hasID := selfID(d)

			// Announce local adom and own identifier, once.
			for a := range localADom(d) {
				if !d.Has(fact.New(relAnnS, a)) {
					snd.Add(fact.New(relAnn, a))
				}
			}
			if hasID && !d.Has(fact.New(relHelloS, id)) {
				snd.Add(fact.New(relHello, id))
			}

			// Request uncovered values.
			if hasID {
				for _, a := range myAdom(d) {
					if responsibleForValue(d, in, a) || d.Has(fact.New(relReqS, a)) {
						continue
					}
					snd.Add(fact.New(relReq, id, a))
				}
			}

			// Respond to requests we are responsible for, and send OK
			// once everything owed has been acknowledged.
			for _, pair := range pendingRequests(d) {
				requester, a := pair[0], pair[1]
				acked := true
				for _, rf := range respFactsFor(d, requester, a) {
					if !d.Has(fact.FromTuple(relAckG(rf.rel), rf.args)) {
						acked = false
					}
					if !d.Has(fact.FromTuple(relRespS(rf.rel), rf.args)) {
						snd.Add(fact.FromTuple(relResp(rf.rel), rf.args))
					}
				}
				if acked && !d.Has(fact.New(relOkS(), requester, a)) {
					snd.Add(fact.New(relOk, requester, a))
				}
			}

			// Acknowledge responses addressed to us.
			for rel := range in {
				for _, f := range d.Rel(relResp(rel)) {
					if !hasID || f.Arg(0) != id {
						continue
					}
					if !d.Has(fact.FromTuple(relAckS(rel), f.Args())) {
						snd.Add(fact.FromTuple(relAck(rel), f.Args()))
					}
				}
			}
			return snd, nil
		},
	}
	return t, nil
}
