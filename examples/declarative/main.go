// Declarative: the Theorem 4.3 evaluation strategy written entirely in
// stratified Datalog¬ — a "relational transducer" in the literal sense.
// The four transducer components (output, memory insertion, memory
// deletion, send) are Datalog¬ programs over the visible schema, which
// includes the system relations Id, MyAdom and Policy_E of the
// policy-aware model. The transducer computes the NoLoop query
// (∈ Mdistinct \ M) on every network and policy, coordination-free,
// without ever reading the All relation.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/transducer"
)

func main() {
	schema := transducer.Schema{
		In:  fact.MustSchema(map[string]int{"E": 2}),
		Out: fact.MustSchema(map[string]int{"O": 1}),
		Msg: fact.MustSchema(map[string]int{"F": 2, "A": 2, "H": 1}),
		Mem: fact.MustSchema(map[string]int{
			"GotF": 2, "GotA": 2, "GotH": 1,
			"SentF": 2, "SentA": 2, "SentH": 1,
		}),
	}
	tr, err := transducer.DatalogTransducer(schema,
		// Qout: NoLoop over the known fragment, gated on completeness.
		// Bad(w) marks everything while some pair over MyAdom is
		// neither known present (Kn) nor known absent (Ab) — the
		// proof's "MyAdom is complete at x" as a stratified rule.
		`Kn(x,y)  :- E(x,y).
		 Kn(x,y)  :- F(x,y).
		 Kn(x,y)  :- GotF(x,y).
		 Ab(x,y)  :- A(x,y).
		 Ab(x,y)  :- GotA(x,y).
		 Ab(x,y)  :- Policy_E(x,y), !E(x,y).
		 Res(x,y) :- Kn(x,y).
		 Res(x,y) :- Ab(x,y).
		 Bad(w)   :- MyAdom(a), MyAdom(b), !Res(a,b), MyAdom(w).
		 Val(x)   :- Kn(x,y).
		 Val(y)   :- Kn(x,y).
		 Loop(x)  :- Kn(x,x).
		 O(x)     :- Val(x), !Loop(x), !Bad(x).`,
		// Qins: persist deliveries and detections, mark sends.
		`GotF(x,y)  :- F(x,y).
		 GotA(x,y)  :- A(x,y).
		 GotA(x,y)  :- Policy_E(x,y), !E(x,y).
		 GotH(v)    :- H(v).
		 SentF(x,y) :- E(x,y).
		 SentA(x,y) :- Policy_E(x,y), !E(x,y).
		 SentH(n)   :- Id(n).`,
		``,
		// Qsnd: forward facts, announce absences and own identifier.
		`F(x,y) :- E(x,y), !SentF(x,y).
		 A(x,y) :- Policy_E(x,y), !E(x,y), !SentA(x,y).
		 H(n)   :- Id(n), !SentH(n).`,
	)
	if err != nil {
		log.Fatal(err)
	}

	net := transducer.MustNetwork("n1", "n2")
	input := fact.MustParseInstance(`E(a,b) E(b,c) E(c,c)`)
	pol := transducer.HashPolicy(net)

	fmt.Println("input:", input)
	for _, x := range net {
		fmt.Printf("fragment at %s: %v\n", x, transducer.Dist(pol, net, input)[x])
	}
	fmt.Println("\ntrace (policy-aware model, no All):")

	sim, err := transducer.NewSimulation(net, tr, pol, transducer.PolicyAwareNoAll, input)
	if err != nil {
		log.Fatal(err)
	}
	sim.Observe(obs.NewSink(os.Stdout))
	out, err := sim.RunToQuiescence(64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistributed NoLoop output: %v  (c has a self-loop)\n", out)
	fmt.Printf("messages sent: %d\n", sim.Metrics.MessagesSent)
}
