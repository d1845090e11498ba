package core

import (
	"fmt"
	"slices"

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
//
// Out, Ins and Snd are the Section 4.1.2 definition. Delta is the same
// transition read off the node's parts and the System view by probe,
// responsibility asked per value (DESIGN.md §16), walking only what the
// node's memory has not seen; it evaluates the query at a complete
// transition where K grew.
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
	// The relations derived from one input relation, interned for the
	// insert-only form; byRel finds them from a local fact, byMsg from a
	// delivered response or acknowledgment.
	type ids struct {
		rel, got, resp, ack, respS, ackG, ackS fact.ID
		arity                                  int
	}
	var rels []*ids
	byRel, byMsg := make(map[fact.ID]*ids), make(map[fact.ID]*ids)
	for _, rel := range inputRels(in) {
		r := &ids{fact.InternString(rel), fact.InternString(relGot(rel)), fact.InternString(relResp(rel)), fact.InternString(relAck(rel)),
			fact.InternString(relRespS(rel)), fact.InternString(relAckG(rel)), fact.InternString(relAckS(rel)), in[rel]}
		rels = append(rels, r)
		byRel[r.rel], byMsg[r.resp], byMsg[r.ack] = r, r, r
	}
	var (
		hello, ann, req, ok = fact.InternString(relHello), fact.InternString(relAnn), fact.InternString(relReq), fact.InternString(relOk)
		val, helloS, annS   = fact.InternString(relVal), fact.InternString(relHelloS), fact.InternString(relAnnS)
		reqS, okGot         = fact.InternString(relReqS), fact.InternString(relOkGot)
		reqG, okS           = fact.InternString(relReqG()), fact.InternString(relOkS())
	)
	known := newKnown(in, relGot)
	eval := func(k *fact.Instance) (*fact.Instance, error) {
		res, err := q.Eval(k)
		if err != nil {
			return nil, fmt.Errorf("core: domain-request strategy evaluating %s: %w", q.Name(), err)
		}
		return res, nil
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
			return eval(known.of(d))
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
		Delta: func(local, state, m *fact.Instance, sys transducer.System, acc *transducer.Delta) error {
			d := delta{acc, state}
			base := sys.Base()
			// responsible is responsibleForValue: one policy probe per input
			// relation on the all-a tuple. diag and args below have a
			// constant capacity, which keeps them on the stack.
			diag := make([]fact.ID, 0, 8)
			responsible := func(a fact.ID) bool {
				for _, r := range rels {
					diag = diag[:0]
					for range r.arity {
						diag = append(diag, a)
					}
					if base.Responsible(r.rel, diag) {
						return true
					}
				}
				return false
			}
			id, hasID := sys.Id()
			var self fact.ID
			if hasID {
				self = fact.Intern(id)
			}
			// The hello and the announcements go out once per memory,
			// whose first transition answers every stored request.
			memo := base.Memo()
			if memo.Open == nil {
				memo.Open = make([][]fact.ID, 1)
				memo.Wake = append(memo.Wake[:0], state.Rows(reqG, 2)...)
				if hasID {
					d.insSend(helloS, hello, []fact.ID{self})
				}
				local.EachIDs(func(rel fact.ID, args []fact.ID) bool {
					if byRel[rel] != nil {
						for i := range args {
							d.insSend(annS, ann, args[i:i+1])
						}
					}
					return true
				})
			}

			// answer serves one pending request (requester, a) of a value
			// this node is responsible for, as pendingRequests and
			// respFactsFor do.
			args := make([]fact.ID, 0, 8)
			answer := func(pair []fact.ID) {
				if !responsible(pair[1]) {
					return
				}
				acked := true
				local.EachIDs(func(rel fact.ID, t []fact.ID) bool {
					r := byRel[rel]
					if r == nil || !slices.Contains(t, pair[1]) {
						return true
					}
					args = append(append(args[:0], pair...), t...)
					d.insSend(r.respS, r.resp, args)
					acked = acked && state.HasIDs(r.ackG, args)
					return true
				})
				if acked {
					d.insSend(okS, ok, pair)
				}
			}
			// A stored request is answered again after an ack of it is.
			for at := 0; at < len(memo.Wake); at += 2 {
				if pair := memo.Wake[at : at+2]; state.HasIDs(reqG, pair) {
					answer(pair)
				}
			}
			memo.Wake = memo.Wake[:0]
			m.EachIDs(func(rel fact.ID, t []fact.ID) bool {
				switch r := byMsg[rel]; {
				case rel == ann || rel == hello:
					d.ins(val, t)
				case rel == ok:
					if hasID && t[0] == self {
						d.ins(okGot, t[1:])
					}
				case rel == req:
					if !state.HasIDs(reqG, t) { // stored ones are answered below
						d.ins(reqG, t)
						answer(t)
					}
				case r != nil && rel == r.resp:
					if hasID && t[0] == self {
						d.ins(r.got, t[2:])
						d.insSend(r.ackS, r.ack, t)
					}
				case r != nil:
					if d.ins(r.ackG, t) {
						memo.Wake = append(memo.Wake, t[:2]...)
					}
				}
				return true
			})

			// Request each uncovered value once; the open ones wait for
			// their OK (a value leaves A only if the model hides Id).
			pair := []fact.ID{self, 0}
			for _, a := range base.New() {
				if responsible(a) {
					continue
				}
				pair[1] = a
				if hasID && !state.HasIDs(reqS, pair[1:]) {
					d.ins(reqS, pair[1:])
					d.send(req, pair)
				}
				memo.Open[0] = append(memo.Open[0], a)
			}
			var complete bool
			memo.Open[0], complete = settle(memo.Open[0], 1,
				func(a []fact.ID) bool { return state.HasIDs(okGot, a) },
				func(a []fact.ID) bool {
					pair[1] = a[0]
					_, inA := slices.BinarySearch(base.MyAdom(), a[0])
					return !inA || hasID && m.HasIDs(ok, pair)
				})
			k := 0 // |K|, up to input facts held twice
			for _, r := range rels {
				k += state.Count(r.got, r.arity)
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
