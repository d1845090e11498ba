package calm_test

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/calm"
	"repro/internal/generate"
	"repro/internal/ilog"
	"repro/internal/monotone"
	"repro/internal/obs"
	"repro/internal/transducer"
)

// The README quick start: distribute the non-monotone win-move query
// over three nodes under a domain-guided policy.
func Example() {
	q := calm.WinMove()
	net := calm.MustNetwork("n1", "n2", "n3")
	pol := calm.DomainGuided(calm.HashAssignment(net))
	in := calm.MustParseInstance(`Move(a,b) Move(b,c)`)

	res, err := calm.Compute(calm.DomainRequest, q, net, pol, in, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Output)

	ok, err := calm.VerifyCoordinationFree(calm.DomainRequest, q, net, in)
	if err != nil {
		panic(err)
	}
	fmt.Println("coordination-free:", ok)
	// Output:
	// {O(b)}
	// coordination-free: true
}

// Classify programs into the paper's Datalog fragments and shrink a
// monotonicity counterexample to its minimal core.
func Example_classifyAndShrink() {
	prog := calm.MustParseProgram(`
		T(x,y)  :- E(x,y).
		T(x,z)  :- T(x,y), E(y,z).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x,y)  :- Adom(x), Adom(y), !T(x,y).
	`)
	fmt.Println(prog.Classify())

	q := calm.ComplementTC()
	w, err := calm.CheckPair(q,
		calm.MustParseInstance(`E(a,a) E(b,b) E(z,z)`),
		calm.MustParseInstance(`E(a,c) E(c,b) E(c,d)`))
	if err != nil {
		panic(err)
	}
	small, err := calm.ShrinkWitness(q, calm.MDistinct, w)
	if err != nil {
		panic(err)
	}
	fmt.Println("minimal J:", small.J)
	// Output:
	// semicon-Datalog¬
	// minimal J: {E(a,c), E(c,b)}
}

// Parse a Datalog¬ program, evaluate it on a small graph, and ask the
// classifier where it sits in the paper's Figure 2.
func Example_quickstart() {
	// The complement of transitive closure — the paper's QTC, the
	// canonical query that is domain-disjoint-monotone but not
	// domain-distinct-monotone.
	prog, err := calm.ParseProgram(`
		T(x,y)  :- E(x,y).
		T(x,z)  :- T(x,y), E(y,z).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x,y)  :- Adom(x), Adom(y), !T(x,y).
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println("program:")
	fmt.Println(prog)
	fmt.Printf("\nfragment: %s (semi-connected: the only disconnected rule sits in the last stratum)\n", prog.Classify())

	input := calm.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d)`)
	fmt.Printf("\ninput: %v\n", input)
	q, err := calm.NewDatalogQuery(prog, "O")
	if err != nil {
		panic(err)
	}
	out, err := q.Eval(input)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nQTC(input) — pairs with no directed path: %v\n", out)

	// The paper's point: this non-monotone query still has a
	// coordination-free distributed evaluation, because it is
	// domain-disjoint-monotone. Check both halves on one pair each.
	i := calm.MustParseInstance(`E(a,a) E(b,b)`)
	j := calm.MustParseInstance(`E(a,c) E(c,b)`) // domain-distinct: c is new
	w, err := calm.CheckPair(q, i, j)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ndomain-distinct addition %v breaks monotonicity: lost %v\n", j, w.Missing)
	jDisjoint := calm.MustParseInstance(`E(x,y) E(y,z)`)
	if w, err = calm.CheckPair(q, i, jDisjoint); err != nil {
		panic(err)
	}
	if w == nil {
		fmt.Printf("domain-disjoint addition %v preserves all outputs (QTC ∈ Mdisjoint)\n", jDisjoint)
	}
	// Output:
	// program:
	// T(x,y) :- E(x,y).
	// T(x,z) :- T(x,y), E(y,z).
	// Adom(x) :- E(x,y).
	// Adom(y) :- E(x,y).
	// O(x,y) :- Adom(x), Adom(y), !T(x,y).
	//
	// fragment: semicon-Datalog¬ (semi-connected: the only disconnected rule sits in the last stratum)
	//
	// input: {E(a,b), E(b,c), E(c,a), E(d,d)}
	//
	// QTC(input) — pairs with no directed path: {O(a,d), O(b,d), O(c,d), O(d,a), O(d,b), O(d,c)}
	//
	// domain-distinct addition {E(a,c), E(c,b)} breaks monotonicity: lost O(a,b)
	// domain-disjoint addition {E(x,y), E(y,z)} preserves all outputs (QTC ∈ Mdisjoint)
}

// The paper's headline application. The win-move query — which
// positions of a game graph are won under the well-founded semantics
// of Win(x) :- Move(x,y), ¬Win(y) — is not monotone, yet it is
// domain-disjoint-monotone, so the domain-request strategy computes it
// coordination-free on any network under any domain-guided policy
// (Theorem 4.4).
func Example_winmove() {
	// A small game: a ⇄ b with an escape b → c, plus a separate
	// component d → e. Winning means moving to a lost position.
	game := calm.MustParseInstance(`
		Move(a,b) Move(b,a) Move(b,c)
		Move(d,e)
	`)
	won, lost, drawn, err := calm.WinMoveClassified(game)
	if err != nil {
		panic(err)
	}
	fmt.Printf("game       : %v\n", game)
	fmt.Printf("won        : %v\n", won.Sorted())
	fmt.Printf("lost       : %v\n", lost.Sorted())
	fmt.Printf("drawn      : %v\n\n", drawn.Sorted())

	// Distribute the game over three nodes, domain-guided: every value
	// is assigned to a node by hash, and each Move fact is replicated
	// to the nodes of both its endpoints.
	net := calm.MustNetwork("n1", "n2", "n3")
	pol := calm.DomainGuided(calm.HashAssignment(net))
	q := calm.WinMove()
	res, err := calm.Compute(calm.DomainRequest, q, net, pol, game, 0)
	if err != nil {
		panic(err)
	}
	central, err := q.Eval(game)
	if err != nil {
		panic(err)
	}
	fmt.Printf("distributed output on %v: %v\n", net, res.Output)
	fmt.Printf("centralized output      : %v\n", central)
	fmt.Printf("consistent              : %v\n", res.Output.Equal(central))
	fmt.Printf("transitions=%d heartbeats=%d messages=%d\n\n",
		res.Metrics.Transitions, res.Metrics.Heartbeats, res.Metrics.MessagesSent)

	// Definition 3: under an ideal domain assignment (all values at
	// one node) the answer appears in a heartbeat-only prefix — no
	// communication is read, hence no coordination.
	ok, err := calm.VerifyCoordinationFree(calm.DomainRequest, q, net, game)
	if err != nil {
		panic(err)
	}
	fmt.Printf("coordination-free witness (heartbeat-only prefix): %v\n", ok)
	// Output:
	// game       : {Move(a,b), Move(b,a), Move(b,c), Move(d,e)}
	// won        : [b d]
	// lost       : [a c e]
	// drawn      : []
	//
	// distributed output on [n1 n2 n3]: {O(b), O(d)}
	// centralized output      : {O(b), O(d)}
	// consistent              : true
	// transitions=18 heartbeats=5 messages=152
	//
	// coordination-free witness (heartbeat-only prefix): true
}

// Walk the monotonicity hierarchy of Figure 1 bottom-up: for each level
// a query that belongs there and the concrete instance pair that
// expels it from the level below (Theorem 3.1's separating examples,
// executed).
func Example_hierarchy() {
	levels := []struct {
		query         calm.Query
		inClass       calm.Class
		hasIn, hasOut bool
		notIn         calm.Class
		i, j          *calm.Instance
		comments      string
	}{
		{
			query:    calm.TC(),
			inClass:  calm.M,
			hasIn:    true,
			comments: "positive Datalog: fully monotone",
		},
		{
			query:    calm.NoLoop(),
			inClass:  calm.MDistinct,
			hasIn:    true,
			hasOut:   true,
			notIn:    calm.M,
			i:        calm.MustParseInstance(`E(a,b)`),
			j:        calm.MustParseInstance(`E(a,a)`),
			comments: "SP-Datalog: survives additions that bring new values",
		},
		{
			query:    calm.ComplementTC(),
			inClass:  calm.MDisjoint,
			hasIn:    true,
			hasOut:   true,
			notIn:    calm.MDistinct,
			i:        calm.MustParseInstance(`E(a,a) E(b,b)`),
			j:        calm.MustParseInstance(`E(a,c) E(c,b)`),
			comments: "semicon-Datalog¬: survives additions sharing no value",
		},
		{
			query:    calm.TrianglesUnlessTwoDisjoint(),
			hasOut:   true,
			notIn:    calm.MDisjoint,
			i:        generate.Triangle("a", "b", "c"),
			j:        generate.Triangle("x", "y", "z"),
			comments: "computable but outside every weakened class",
		},
	}
	sampler := monotone.ClassSampler(calm.MDisjoint, func(rng *rand.Rand) (*calm.Instance, *calm.Instance) {
		return generate.RandomGraph(rng, "v", 4, 5), generate.RandomGraph(rng, "w", 4, 4)
	})

	fmt.Println("The monotonicity hierarchy M ⊊ Mdistinct ⊊ Mdisjoint ⊊ C (Figure 1):")
	fmt.Println()
	for _, l := range levels {
		fmt.Printf("%-14s — %s\n", l.query.Name(), l.comments)
		if l.hasOut {
			w, err := calm.CheckPair(l.query, l.i, l.j)
			if err != nil || w == nil {
				panic(fmt.Sprintf("%s should violate %v: %v", l.query.Name(), l.notIn, err))
			}
			fmt.Printf("  ∉ %-12v I=%v + J=%v loses %v\n", l.notIn, l.i, l.j, w.Missing)
		}
		if l.hasIn {
			w, err := calm.FindViolation(l.query, l.inClass, sampler, 5, 200)
			if err != nil || w != nil {
				panic(fmt.Sprintf("%s should stay in %v: %v %v", l.query.Name(), l.inClass, w, err))
			}
			fmt.Printf("  ∈ %-12v no violation in 200 sampled pairs\n", l.inClass)
		}
		fmt.Println()
	}

	// The bounded classes: one edge from the old center is enough to
	// grow a star, but disjoint additions need all spokes at once.
	fmt.Println("Bounded classes (Theorem 3.1(6)): Q³star ∈ M²disjoint \\ M¹distinct")
	star := generate.Star("c", "s", 2)
	add := calm.MustParseInstance(`E(c,new)`)
	w, err := calm.CheckPair(calm.KStar(3), star, add)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  star %v + single distinct edge %v loses %v\n", star, add, w.Missing)
	// Output:
	// The monotonicity hierarchy M ⊊ Mdistinct ⊊ Mdisjoint ⊊ C (Figure 1):
	//
	// TC             — positive Datalog: fully monotone
	//   ∈ M            no violation in 200 sampled pairs
	//
	// NoLoop         — SP-Datalog: survives additions that bring new values
	//   ∉ M            I={E(a,b)} + J={E(a,a)} loses O(a)
	//   ∈ M_distinct   no violation in 200 sampled pairs
	//
	// QTC(¬TC)       — semicon-Datalog¬: survives additions sharing no value
	//   ∉ M_distinct   I={E(a,a), E(b,b)} + J={E(a,c), E(c,b)} loses O(a,b)
	//   ∈ M_disjoint   no violation in 200 sampled pairs
	//
	// Q_triangles    — computable but outside every weakened class
	//   ∉ M_disjoint   I={E(a,b), E(b,c), E(c,a)} + J={E(x,y), E(y,z), E(z,x)} loses O(a,b,c)
	//
	// Bounded classes (Theorem 3.1(6)): Q³star ∈ M²disjoint \ M¹distinct
	//   star {E(c,s0), E(c,s1)} + single distinct edge {E(c,new)} loses O(c,s0)
}

// Classify Datalog¬ programs into the fragments of Figure 2 — Datalog,
// Datalog(≠), SP-Datalog, con-Datalog¬, semicon-Datalog¬, general
// stratified Datalog¬ — including the two programs of Example 5.1, and
// show a semi-connectedness witness stratification.
func Example_fragments() {
	programs := []struct{ name, src string }{
		{"transitive closure", `
			T(x,y) :- E(x,y).
			T(x,z) :- T(x,y), E(y,z).
		`},
		{"distinct edges", `
			O(x,y) :- E(x,y), x != y.
		`},
		{"non-edges (SP)", `
			Adom(x) :- E(x,y).
			Adom(y) :- E(x,y).
			O(x,y)  :- Adom(x), Adom(y), !E(x,y).
		`},
		{"Example 5.1 P1 (no-triangle values)", `
			T(x)    :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.
			O(x)    :- ¬T(x), Adom(x).
			Adom(x) :- E(x,y).
			Adom(y) :- E(x,y).
		`},
		{"complement of TC (QTC)", `
			T(x,y)  :- E(x,y).
			T(x,z)  :- T(x,y), E(y,z).
			Adom(x) :- E(x,y).
			Adom(y) :- E(x,y).
			O(x,y)  :- Adom(x), Adom(y), !T(x,y).
		`},
		{"Example 5.1 P2 (two disjoint triangles)", `
			T(x,y,z) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.
			D(x1)    :- T(x1,x2,x3), T(y1,y2,y3),
			            x1 != y1, x1 != y2, x1 != y3,
			            x2 != y1, x2 != y2, x2 != y3,
			            x3 != y1, x3 != y2, x3 != y3.
			O(x)     :- ¬D(x), Adom(x).
			Adom(x)  :- E(x,y).
			Adom(y)  :- E(x,y).
		`},
		{"win-move", `
			Win(x) :- Move(x,y), !Win(y).
		`},
	}
	fmt.Println("Datalog¬ fragment classification (Figure 2):")
	for _, p := range programs {
		fmt.Printf("%-40s → %s\n", p.name, calm.MustParseProgram(p.src).Classify())
	}

	fmt.Println("Semi-connectedness witness for QTC: the disconnected O-rule is")
	fmt.Println("pushed into the final stratum, all earlier strata are connected:")
	rho, ok := calm.MustParseProgram(programs[4].src).SemiConnectedStratification()
	if !ok {
		panic("QTC should be semi-connected")
	}
	rels := make([]string, 0, len(rho))
	for rel := range rho {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		fmt.Printf("  ρ(%s) = %d\n", rel, rho[rel])
	}
	// Output:
	// Datalog¬ fragment classification (Figure 2):
	// transitive closure                       → Datalog
	// distinct edges                           → Datalog(≠)
	// non-edges (SP)                           → SP-Datalog
	// Example 5.1 P1 (no-triangle values)      → con-Datalog¬
	// complement of TC (QTC)                   → semicon-Datalog¬
	// Example 5.1 P2 (two disjoint triangles)  → Datalog¬
	// win-move                                 → unstratifiable
	// Semi-connectedness witness for QTC: the disconnected O-rule is
	// pushed into the final stratum, all earlier strata are connected:
	//   ρ(Adom) = 1
	//   ρ(O) = 3
	//   ρ(T) = 1
}

// wILOG¬ value invention (Section 5.2). ILOG¬ extends Datalog¬ with
// invention relations whose first position is filled by a fresh Skolem
// value per satisfying valuation; weakly safe programs never leak
// invented values into the output. Cabibbo's results place SP-wILOG at
// Mdistinct and — the paper's Theorem 5.4 — semicon-wILOG¬ exactly at
// Mdisjoint.
func Example_invention() {
	// Give every edge an invented identifier, then chain identifiers
	// to report two-step reachability. The invented ids stay internal.
	p := calm.MustParseILOGProgram(`
		Id(*, x, y) :- E(x,y).
		O(x,z)      :- Id(i, x, y), Id(j, y, z).
	`)
	fmt.Println("program:")
	fmt.Println(p)
	fmt.Printf("weakly safe for O : %v\n", p.IsWeaklySafe("O"))
	fmt.Printf("semi-connected    : %v\n", p.IsSemiConnected())
	fmt.Printf("unsafe positions  : %v\n", p.UnsafePositions())

	in := calm.MustParseInstance(`E(a,b) E(b,c) E(c,d)`)
	full, err := p.Eval(in, ilog.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("invented id facts (the Skolem value quoted):")
	for _, f := range full.Rel("Id") {
		fmt.Printf("  Id(%q,%s,%s)\n", f.Arg(0), f.Arg(1), f.Arg(2))
	}
	out, err := p.EvalQuery(in, []string{"O"}, ilog.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("output (no invented values): %v\n", out)

	// Divergence detection: an invention relation feeding itself makes
	// the output undefined; the evaluator reports it rather than loop.
	diverging := calm.MustParseILOGProgram(`
		N(*, x) :- E(x,y).
		N(*, n) :- N(n, x).
	`)
	_, err = diverging.Eval(calm.MustParseInstance(`E(a,b)`), ilog.Options{MaxRounds: 50, MaxFacts: 500})
	fmt.Printf("self-feeding invention: %v\n", err)
	// Output:
	// program:
	// Id(*, x,y) :- E(x,y).
	// O(x,z) :- Id(i,x,y), Id(j,y,z).
	// weakly safe for O : true
	// semi-connected    : true
	// unsafe positions  : [{Id 1}]
	// invented id facts (the Skolem value quoted):
	//   Id("$fId(a\x01b)",a,b)
	//   Id("$fId(b\x01c)",b,c)
	//   Id("$fId(c\x01d)",c,d)
	// output (no invented values): {O(a,c), O(b,d)}
	// self-feeding invention: ilog: fixpoint did not converge (output undefined)
}

// The Theorem 4.3 evaluation strategy written entirely in stratified
// Datalog¬ — a relational transducer in the literal sense. The four
// components (output, memory insertion, memory deletion, send) are
// Datalog¬ programs over the visible schema, which includes the system
// relations Id, MyAdom and Policy_E of the policy-aware model. The
// transducer computes NoLoop (∈ Mdistinct \ M) on every network and
// policy, coordination-free, without ever reading All.
func Example_declarative() {
	schema := transducer.Schema{
		In:  calm.MustSchema(map[string]int{"E": 2}),
		Out: calm.MustSchema(map[string]int{"O": 1}),
		Msg: calm.MustSchema(map[string]int{"F": 2, "A": 2, "H": 1}),
		Mem: calm.MustSchema(map[string]int{
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
		panic(err)
	}

	net := calm.MustNetwork("n1", "n2")
	input := calm.MustParseInstance(`E(a,b) E(b,c) E(c,c)`)
	pol := calm.HashPolicy(net)
	fmt.Println("input:", input)
	for _, x := range net {
		fmt.Printf("fragment at %s: %v\n", x, transducer.Dist(pol, net, input)[x])
	}
	fmt.Println("trace (policy-aware model, no All):")
	sim, err := calm.NewSimulation(net, tr, pol, calm.PolicyAwareNoAll, input)
	if err != nil {
		panic(err)
	}
	sim.Observe(obs.NewStream(os.Stdout))
	out, err := sim.RunToQuiescence(64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("distributed NoLoop output: %v  (c has a self-loop)\n", out)
	fmt.Printf("messages sent: %d\n", sim.Metrics.MessagesSent)
	// Output:
	// input: {E(a,b), E(b,c), E(c,c)}
	// fragment at n1: {E(c,c)}
	// fragment at n2: {E(a,b), E(b,c)}
	// trace (policy-aware model, no All):
	// {"ev":"sim.transition","step":1,"clock":1,"node":"n1","kind":"heartbeat","delivered":0,"sent":5,"changed":true,"out":0,"buffered":0,"held":0,"msgs":"{}"}
	// {"ev":"sim.transition","step":2,"clock":2,"node":"n2","kind":"deliver","delivered":5,"sent":13,"changed":true,"out":0,"buffered":0,"held":0,"msgs":"{A(c,n1), A(n1,c), A(n1,n1), F(c,c), H(n1)}"}
	// {"ev":"sim.transition","step":3,"clock":3,"node":"n1","kind":"deliver","delivered":13,"sent":9,"changed":true,"out":2,"buffered":0,"held":0,"msgs":"{A(a,n2), A(b,a), A(b,n1), A(c,b), A(c,n2), A(n1,b), A(n1,n2), A(n2,a), A(n2,c), A(n2,n1), F(a,b), F(b,c), H(n2)}"}
	// {"ev":"sim.transition","step":4,"clock":4,"node":"n2","kind":"deliver","delivered":9,"sent":0,"changed":true,"out":2,"buffered":0,"held":0,"msgs":"{A(a,a), A(a,c), A(a,n1), A(b,b), A(b,n2), A(c,a), A(n1,a), A(n2,b), A(n2,n2)}"}
	// {"ev":"sim.transition","step":5,"clock":5,"node":"n1","kind":"heartbeat","delivered":0,"sent":0,"changed":false,"out":2,"buffered":0,"held":0,"msgs":"{}"}
	// {"ev":"sim.transition","step":6,"clock":6,"node":"n2","kind":"heartbeat","delivered":0,"sent":0,"changed":false,"out":2,"buffered":0,"held":0,"msgs":"{}"}
	// {"ev":"sim.quiesce","clock":6,"rounds":3,"out":2}
	// distributed NoLoop output: {O(a), O(b)}  (c has a self-loop)
	// messages sent: 27
}
