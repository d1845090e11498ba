// Package core implements the paper's primary contribution as
// executable artifacts: the three generic coordination-free evaluation
// strategies from the proofs of Section 4, each turning an arbitrary
// query of the right monotonicity class into a relational transducer
// that computes it on every network under every (admissible)
// distribution policy, with a heartbeat-only witness run under an
// ideal policy (Definition 3):
//
//   - Broadcast (class M, F0 = A0): every node broadcasts its local
//     input facts and evaluates the query on everything it has seen;
//     monotonicity guarantees no wrong outputs. Works in the oblivious
//     model — it reads no system relation at all.
//
//   - Absence (class Mdistinct, F1 = A1, Theorem 4.3): nodes broadcast
//     local facts and absences of facts they are policy-responsible
//     for; a node outputs Q on its collected facts whenever its MyAdom
//     is complete — every candidate fact over MyAdom is either known
//     present or known absent. Domain-distinct-monotonicity makes each
//     such partial output sound.
//
//   - DomainRequest (class Mdisjoint, F2 = A2, Theorem 4.4): under
//     domain-guided policies, nodes broadcast the active domain of
//     their fragment; for each known value a node is not responsible
//     for, it runs the request/acknowledge/OK protocol with the
//     responsible nodes; once every known value is covered, its
//     collected facts form a union of data "spheres" and
//     domain-disjoint-monotonicity makes the output sound.
//
// None of the strategies reads the All relation, which is the
// executable content of Theorem 4.5: coordination-freeness coincides
// with not requiring knowledge of all network nodes.
//
// The strategies deviate from the proof sketches in one documented
// way: each node also announces its own identifier once ("hello"
// messages). The proofs let node identifiers reach other nodes through
// the All relation; in the All-free model the announcements play that
// role, so that completeness over MyAdom (which always contains the
// local identifier) is eventually reached at every node. Under the
// ideal policies the announcements are never needed — the witness runs
// stay heartbeat-only.
package core

import (
	"fmt"
	"sort"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/transducer"
)

// Strategy selects one of the paper's evaluation strategies.
type Strategy int

// The three strategies, ordered like the classes they capture.
const (
	// Broadcast computes monotone queries (class M).
	Broadcast Strategy = iota
	// Absence computes domain-distinct-monotone queries (Mdistinct).
	Absence
	// DomainRequest computes domain-disjoint-monotone queries
	// (Mdisjoint) under domain-guided policies.
	DomainRequest
	// Gossip computes monotone queries (class M) like Broadcast, but
	// nodes also relay every received fact once. Broadcast only works
	// when every sender reaches every node directly; gossip's epidemic
	// relaying additionally converges under hop-by-hop neighbor
	// routing on sparse topologies (internal/netsim), where a fact must
	// cross intermediate nodes to reach the far side of the graph.
	Gossip
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Broadcast:
		return "broadcast(M)"
	case Absence:
		return "absence(Mdistinct)"
	case DomainRequest:
		return "domain-request(Mdisjoint)"
	case Gossip:
		return "gossip(M)"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Class returns the monotonicity class whose queries the strategy
// computes correctly.
func (s Strategy) Class() monotone.Class {
	switch s {
	case Broadcast, Gossip:
		return monotone.M
	case Absence:
		return monotone.MDistinct
	default:
		return monotone.MDisjoint
	}
}

// RequiredModel returns the weakest transducer model the strategy
// needs. Broadcast is oblivious; the other two need Id, MyAdom and
// the policy relations — but never All (Theorem 4.5).
func (s Strategy) RequiredModel() transducer.Model {
	if s == Broadcast || s == Gossip {
		return transducer.Oblivious
	}
	return transducer.PolicyAwareNoAll
}

// idealPolicy returns the Definition 3 witness policy for the strategy
// on the given network: the distribution under which node x computes
// the full query answer with heartbeat transitions only.
func (s Strategy) idealPolicy(x transducer.NodeID) transducer.Policy {
	if s == DomainRequest {
		// Must be domain-guided: assign every value to x.
		return transducer.DomainGuided(transducer.AssignAllTo(x))
	}
	return transducer.AllToNode(x)
}

// Internal relation names, derived from each input relation R. The
// "X" prefix is an implementation namespace; Build rejects queries
// whose schemas collide with it.
const (
	relHello   = "Xhello" // msg: node id announcement
	relAnn     = "Xann"   // msg: active-domain value announcement
	relReq     = "Xreq"   // msg: Xreq(x, a) — x requests value a
	relOk      = "Xok"    // msg: Xok(x, a) — all facts of a delivered to x
	relVal     = "Xval"   // mem: known values (ids and announced adom)
	relHelloS  = "XhelloS"
	relAnnS    = "XannS"
	relReqS    = "XreqS"
	relOkGot   = "XokG"
	internalNS = "X"
)

func relFwd(r string) string     { return "Xf_" + r }  // msg: forwarded input fact
func relGot(r string) string     { return "Xg_" + r }  // mem: received input fact
func relSent(r string) string    { return "Xs_" + r }  // mem: fact forwarded already
func relAbs(r string) string     { return "Xa_" + r }  // msg: absence announcement
func relAbsGot(r string) string  { return "Xb_" + r }  // mem: known absence
func relAbsSent(r string) string { return "Xt_" + r }  // mem: absence announced already
func relResp(r string) string    { return "Xr_" + r }  // msg: Xr_R(x, a, ā) response
func relAck(r string) string     { return "Xk_" + r }  // msg: Xk_R(x, a, ā) acknowledgment
func relRespS(r string) string   { return "Xrs_" + r } // mem: response sent
func relAckG(r string) string    { return "Xkg_" + r } // mem: acknowledgment received
func relReqG() string            { return "XreqG" }    // mem: stored request
func relOkS() string             { return "XokS" }     // mem: OK sent
func relAckS(r string) string    { return "Xks_" + r } // mem: acknowledgment sent

// Build constructs the transducer implementing the strategy for the
// query. The query's input and output schemas must not use the
// internal "X" namespace or the system relation names.
func Build(s Strategy, q monotone.Query) (*transducer.Transducer, error) {
	in := q.InputSchema()
	out := q.OutputSchema()
	for _, sch := range []fact.Schema{in, out} {
		for rel := range sch {
			if len(rel) > 0 && rel[0:1] == internalNS {
				return nil, fmt.Errorf("core: relation %s collides with the strategy's internal namespace", rel)
			}
		}
	}
	switch s {
	case Broadcast, Gossip:
		return buildFlood(s, q, in, out)
	case Absence:
		return buildAbsence(q, in, out)
	case DomainRequest:
		return buildDomainRequest(q, in, out)
	default:
		return nil, fmt.Errorf("core: unknown strategy %d", int(s))
	}
}

// MustBuild is like Build but panics on error.
func MustBuild(s Strategy, q monotone.Query) *transducer.Transducer {
	t, err := Build(s, q)
	if err != nil {
		panic(err)
	}
	return t
}

// inputRels returns the query's input relations in sorted order.
func inputRels(in fact.Schema) []string {
	names := in.Names()
	sort.Strings(names)
	return names
}

// known maps each relation that carries input facts of relation R —
// R itself and the strategy's carriers of R — to R.
type known map[fact.ID]fact.ID

// newKnown interns the carriers, e.g. relGot (stored received facts)
// and relFwd (facts delivered in this very transition).
func newKnown(in fact.Schema, carriers ...func(string) string) known {
	k := make(known)
	for rel := range in {
		id := fact.InternString(rel)
		k[id] = id
		for _, c := range carriers {
			k[fact.InternString(c(rel))] = id
		}
	}
	return k
}

// of reconstructs the input facts visible at a node from D, or from the
// node's parts: its local input fragment, its state and the delivered
// message set.
func (k known) of(parts ...*fact.Instance) *fact.Instance {
	return k.into(fact.NewInstance(), parts...)
}

// into is of, adding the input facts to out.
func (k known) into(out *fact.Instance, parts ...*fact.Instance) *fact.Instance {
	for _, d := range parts {
		d.EachIDs(func(rel fact.ID, args []fact.ID) bool {
			if id, ok := k[rel]; ok {
				out.AddIDs(id, args)
			}
			return true
		})
	}
	return out
}

// delta writes the insert-only form of one transition into the
// Stepper's accumulators. ins leaves out what the state already holds,
// so a settled transition adds nothing.
type delta struct {
	*transducer.Delta
	state *fact.Instance
}

// ins inserts rel(args) unless the state holds it, reporting whether it
// did.
func (d delta) ins(rel fact.ID, args []fact.ID) bool {
	if d.state.HasIDs(rel, args) {
		return false
	}
	d.Ins.AddIDs(rel, args)
	return true
}

func (d delta) send(rel fact.ID, args []fact.ID) { d.Snd.AddIDs(rel, args) }

// insSend stores the marker fact rel(args) and sends msg(args), the
// first time only: a marker in the state means the message went out.
// It reports whether it sent.
func (d delta) insSend(rel, msg fact.ID, args []fact.ID) bool {
	if !d.ins(rel, args) {
		return false
	}
	d.send(msg, args)
	return true
}

// evalInto evaluates the query on the input facts visible at the node,
// gathered in the transition's scratch set, and adds the answer to its
// output.
func (d delta) evalInto(eval func(*fact.Instance) (*fact.Instance, error), k known, local, m *fact.Instance) error {
	res, err := eval(k.into(d.Scratch, local, d.state, m))
	if err != nil {
		return err
	}
	d.Out.AddAll(res)
	return nil
}

// settle drops the open candidates (rows of the arity) that are done
// for good and reports whether the rest are resolved now, stopping at
// the first that is not.
func settle(open []fact.ID, arity int, done, now func([]fact.ID) bool) ([]fact.ID, bool) {
	kept := 0
	for at := 0; at < len(open); at += arity {
		if t := open[at : at+arity]; !done(t) {
			if !now(t) {
				return open[:kept+copy(open[kept:], open[at:])], false
			}
			kept += copy(open[kept:], t)
		}
	}
	return open[:kept], true
}

// myAdom reads the MyAdom system relation.
func myAdom(d *fact.Instance) []fact.Value {
	facts := d.Rel(transducer.RelMyAdom)
	out := make([]fact.Value, 0, len(facts))
	for _, f := range facts {
		out = append(out, f.Arg(0))
	}
	return out
}

// selfID reads the Id system relation; empty when the model hides it.
func selfID(d *fact.Instance) (fact.Value, bool) {
	ids := d.Rel(transducer.RelId)
	if len(ids) == 0 {
		return "", false
	}
	return ids[0].Arg(0), true
}

// responsibleForValue reports whether the active node is responsible
// for the value under the (domain-guided) policy: Policy_R(a,...,a)
// is visible for at least one input relation.
func responsibleForValue(d *fact.Instance, in fact.Schema, a fact.Value) bool {
	for rel, ar := range in {
		args := make([]fact.Value, ar)
		for i := range args {
			args[i] = a
		}
		if d.Has(fact.New(transducer.PolicyRel(rel), args...)) {
			return true
		}
	}
	return false
}

// allTuples enumerates the tuples of the given arity over the values.
func allTuples(values []fact.Value, arity int) []fact.Tuple {
	if arity == 0 {
		return []fact.Tuple{{}}
	}
	var out []fact.Tuple
	for _, t := range allTuples(values, arity-1) {
		for _, v := range values {
			nt := append(append(fact.Tuple{}, t...), v)
			out = append(out, nt)
		}
	}
	return out
}
