package transducer

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// A fully declarative forwarding transducer: the four components are
// Datalog¬ programs over the visible schema (input E, message F,
// memory Seen/Sent, system relations unused).
func declarativeForwarder(t *testing.T) *Transducer {
	t.Helper()
	schema := Schema{
		In:  fact.MustSchema(map[string]int{"E": 2}),
		Out: fact.MustSchema(map[string]int{"O": 2}),
		Msg: fact.MustSchema(map[string]int{"F": 2}),
		Mem: fact.MustSchema(map[string]int{"Seen": 2, "Sent": 2}),
	}
	tr, err := DatalogTransducer(schema,
		// Qout: everything known, relabeled.
		`O(x,y) :- E(x,y).
		 O(x,y) :- F(x,y).
		 O(x,y) :- Seen(x,y).`,
		// Qins: persist deliveries, mark local facts sent.
		`Seen(x,y) :- F(x,y).
		 Sent(x,y) :- E(x,y).`,
		// Qdel: nothing.
		``,
		// Qsnd: forward unsent local facts.
		`F(x,y) :- E(x,y), !Sent(x,y).`,
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDatalogTransducerForwarder(t *testing.T) {
	tr := declarativeForwarder(t)
	net := MustNetwork("n1", "n2", "n3")
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,d)`)
	sim, err := NewSimulation(net, tr, HashPolicy(net), Original, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunToQuiescence(20)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantO(in)) {
		t.Errorf("declarative forwarder output = %v", out)
	}
	// Behavior identical to the hand-written forwarder.
	sim2, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, in)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := sim2.RunToQuiescence(20)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(out2) {
		t.Error("declarative and hand-written forwarders disagree")
	}
	if sim.Metrics.MessagesSent != sim2.Metrics.MessagesSent {
		t.Errorf("message counts differ: %d vs %d", sim.Metrics.MessagesSent, sim2.Metrics.MessagesSent)
	}
}

func TestDatalogTransducerUsesSystemRelations(t *testing.T) {
	// A declarative transducer reading Id: output the node's own id
	// paired with every locally held value.
	schema := Schema{
		In:  fact.MustSchema(map[string]int{"E": 2}),
		Out: fact.MustSchema(map[string]int{"O": 2}),
	}
	tr, err := DatalogTransducer(schema,
		`O(n,x) :- Id(n), E(x,y).`, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b)`)
	sim, err := NewSimulation(net, tr, AllToNode("n1"), Original, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunToQuiescence(5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(fact.MustParseInstance(`O(n1,a)`)) {
		t.Errorf("Id-aware declarative transducer output = %v", out)
	}
}

func TestDatalogQueryErrors(t *testing.T) {
	target := fact.MustSchema(map[string]int{"O": 2})
	// Program deriving nothing in the target schema.
	p := datalog.MustParseProgram(`X(a,b) :- E(a,b).`)
	if _, err := datalogQuery(p, target, nil); err == nil {
		t.Error("program without target relations accepted")
	}
	// Unstratifiable component program.
	wm := datalog.MustParseProgram(`O(x,y) :- E(x,y), !O(y,x).`)
	if _, err := datalogQuery(wm, target, nil); err == nil {
		t.Error("unstratifiable transducer query accepted")
	}
}

func TestDatalogQueryRename(t *testing.T) {
	p := datalog.MustParseProgram(`Result(x,y) :- E(x,y).`)
	q, err := datalogQuery(p, fact.MustSchema(map[string]int{"O": 2}), map[string]string{"Result": "O"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := q(fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(fact.MustParseInstance(`O(a,b)`)) {
		t.Errorf("renamed output = %v", out)
	}
}

func TestDatalogTransducerParseError(t *testing.T) {
	schema := Schema{
		In:  fact.MustSchema(map[string]int{"E": 2}),
		Out: fact.MustSchema(map[string]int{"O": 2}),
	}
	if _, err := DatalogTransducer(schema, `O(x :- E(x,y).`, "", "", ""); err == nil {
		t.Error("syntax error not reported")
	}
}
