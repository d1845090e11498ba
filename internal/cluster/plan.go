package cluster

import (
	"repro/internal/datalog"
	"repro/internal/monotone"
)

// Plan is the execution plan read from the program's rows of Figure 2
// (monotone.Figure2): how deltas move between shards and which writes
// reads wait for. The cluster keeps one watermark U, the log position
// of the last write the plan's licence does not cover, and a read
// fences on max(own last write, U). Every write after U is licensed,
// so for any prefix p ≥ U a lagging shard serves, Q(I_U) ⊆ Q(I_p) ⊆
// Q(I_tip): a read never shows a fact the tip lacks, such as one an
// acknowledged retract removed.
type Plan struct {
	// Fragment is the program's most specific Datalog fragment.
	Fragment datalog.Fragment
	// Licence is the row of the program's strongest class.
	Licence monotone.Row
	// Coordination is the wire label: "coordination-free" when the
	// licence covers every insert (M), "fenced" when it covers none.
	Coordination string
	// Partitioned reports the data layout: true means co(I) components
	// are partitioned across shards and reads scatter/gather
	// (Theorem 5.3); false means every shard replicates the full base
	// in global log order and reads route to one shard.
	Partitioned bool
	// Reason is a one-line explanation naming the rows it used.
	Reason string
}

// planFor selects the weakest-coordination plan for the program under
// the requested placement. Component placement partitions only a
// program licensed M that is in a fragment distributing over co(I):
// every derivation stays inside one component, so per-shard evaluation
// loses nothing (Lemma 5.2). Otherwise the plan replicates.
func planFor(p *datalog.Program, place PlacementKind) Plan {
	m := p.Memberships()
	plan := Plan{Fragment: p.Classify(), Licence: monotone.Licence(m), Coordination: "fenced"}
	why := "only M is checked per write, so every write fences reads"
	if plan.insertsLicensed() {
		plan.Coordination, why = "coordination-free", "reads fence on own writes and the last retract"
	}
	for _, r := range monotone.Figure2 {
		if place == PlaceComponent && plan.insertsLicensed() && r.Distributes && m.Has(r.Fragment) {
			plan.Partitioned = true
			why = string(r.Fragment) + " distributes over co(I) (" + r.Theorem + ", " + r.Experiment + "): components partitioned, reads fence on own writes"
		}
	}
	if place == PlaceComponent && !plan.Partitioned {
		why += "; component placement demoted to replication"
	}
	plan.Reason = "licence " + plan.Licence.String() + ": " + why
	return plan
}

// insertsLicensed reports whether the licence is M, which Allows every
// insert-only write. Mdistinct and Mdisjoint allow only writes fresh
// to adom(I), a check the log does not make, so here they cover none.
func (p Plan) insertsLicensed() bool {
	return p.Licence.Class != nil && p.Licence.Class.Implies(monotone.M)
}

// raisesU reports whether an appended write moves U to itself. A
// partitioned plan does not: its writes are acknowledged by every shard
// that holds their facts, so an acknowledged retract is in every later
// gather — unless a migration of the fact is still in flight, whose old
// home may not have applied it yet. There a retract raises U to the
// last migrating write while a shard is behind it (Cluster.submitWrite).
func (p Plan) raisesU(retracts bool) bool {
	return !p.Partitioned && (retracts || !p.insertsLicensed())
}
