package core

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/transducer"
)

// buildFlood constructs the two class-M strategies, which differ only
// in the relay lines. Broadcast (F0) broadcasts the local input
// fragment once, accumulates everything received, and evaluates the
// query on the collected facts at every transition: for a monotone
// query every partial evaluation is a subset of Q(I), so outputs are
// never wrong, and once all facts have arrived everywhere every node
// outputs Q(I). Gossip, the epidemic variant (still class M, still
// oblivious), also relays every fact it receives, exactly once —
// redundant under all-to-all delivery, but under hop-by-hop neighbor
// routing it is what carries a fact across the graph, so every node
// still converges to Q(I) on any connected topology.
//
// Out, Ins and Snd are the Section 4.1.2 definition. Delta is the same
// transition read off the node's parts (DESIGN.md §16): it inserts and
// sends what m and the unsent local facts call for, and computes output
// only when the known input set K = local ∪ Got ∪ m grew. Otherwise K
// is the set of an earlier transition that computed Q(K), whose outputs
// are all still in the state (nothing is ever deleted, and a crash
// wipes Got and the outputs together), so Out would add nothing. When K
// grew by ΔK at a node holding a state, the state holds Q(K) for the
// old K, and a query that is a monotone.Grower adds Q(K ∪ ΔK) \ Q(K)
// alone; a fresh or just-crashed node, or any other query, evaluates Q
// on K.
func buildFlood(s Strategy, q monotone.Query, in, out fact.Schema) (*transducer.Transducer, error) {
	relay := s == Gossip
	msg, mem := make(fact.Schema), make(fact.Schema)
	// The relations derived from one input relation, interned; byRel
	// finds them from a local fact (by rel) or a delivered one (by fwd).
	type ids struct{ rel, fwd, got, sent fact.ID }
	byRel := make(map[fact.ID]ids)
	for rel, ar := range in {
		msg[relFwd(rel)] = ar
		mem[relGot(rel)] = ar
		mem[relSent(rel)] = ar
		r := ids{fact.InternString(rel), fact.InternString(relFwd(rel)), fact.InternString(relGot(rel)), fact.InternString(relSent(rel))}
		byRel[r.rel], byRel[r.fwd] = r, r
	}
	sch := transducer.Schema{In: in, Out: out, Msg: msg, Mem: mem}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	known := newKnown(in, relGot, relFwd)
	grower, _ := q.(monotone.Grower)
	eval := func(k *fact.Instance) (*fact.Instance, error) {
		res, err := q.Eval(k)
		if err != nil {
			return nil, fmt.Errorf("core: %v strategy evaluating %s: %w", s, q.Name(), err)
		}
		return res, nil
	}

	t := &transducer.Transducer{
		Schema: sch,
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			return eval(known.of(d))
		},
		Ins: func(d *fact.Instance) (*fact.Instance, error) {
			ins := fact.NewInstance()
			for rel := range in {
				// Persist facts delivered this transition; a relaying node
				// marks them sent, as Snd relays them in this transition.
				for _, f := range d.Rel(relFwd(rel)) {
					ins.Add(fact.FromTuple(relGot(rel), f.Args()))
					if relay {
						ins.Add(fact.FromTuple(relSent(rel), f.Args()))
					}
				}
				// Mark local facts as forwarded.
				for _, f := range d.Rel(rel) {
					ins.Add(fact.FromTuple(relSent(rel), f.Args()))
				}
			}
			return ins, nil
		},
		Snd: func(d *fact.Instance) (*fact.Instance, error) {
			snd := fact.NewInstance()
			for rel := range in {
				// Forward local facts and, relaying, freshly delivered
				// ones; relSent suppresses both kinds after the first
				// send. (Facts stored in relGot were relFwd in an earlier
				// transition and were relayed and marked sent then.)
				fresh := d.Rel(rel)
				if relay {
					fresh = append(fresh, d.Rel(relFwd(rel))...)
				}
				for _, f := range fresh {
					if !d.Has(fact.FromTuple(relSent(rel), f.Args())) {
						snd.Add(fact.FromTuple(relFwd(rel), f.Args()))
					}
				}
			}
			return snd, nil
		},
		Delta: func(local, state, m *fact.Instance, _ transducer.System, acc *transducer.Delta) error {
			d := delta{acc, state}
			// A node holding a state holds Q(K) for its known input K:
			// ΔK, collected in Scratch, is all a Grower needs.
			grow := grower != nil && !state.Empty()
			grew := state.Empty()
			local.EachIDs(func(rel fact.ID, args []fact.ID) bool {
				if r, ok := byRel[rel]; ok && d.insSend(r.sent, r.fwd, args) {
					grew = true
					if grow {
						d.Scratch.AddIDs(rel, args)
					}
				}
				return true
			})
			m.EachIDs(func(rel fact.ID, args []fact.ID) bool {
				r, ok := byRel[rel]
				if !ok {
					return true
				}
				if d.ins(r.got, args) && !local.HasIDs(r.rel, args) {
					grew = true
					if grow {
						d.Scratch.AddIDs(r.rel, args)
					}
				}
				if relay {
					d.insSend(r.sent, r.fwd, args)
				}
				return true
			})
			switch {
			case !grew:
				return nil
			case grow:
				grower.Grow(state, d.Scratch, d.Out)
				return nil
			default:
				return d.evalInto(eval, known, local, m)
			}
		},
	}
	return t, nil
}
