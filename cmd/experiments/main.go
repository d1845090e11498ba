// Command experiments regenerates every result of the paper in one
// run: the monotonicity hierarchy of Figure 1 (Theorem 3.1, with the
// explicit separating witnesses), the preservation-class equalities of
// Lemma 3.2, the fragment inclusions of Figure 2 (Theorems 5.3 and 5.4,
// Lemma 5.2, Example 5.1), and the transducer-network equalities
// F0 = M, F1 = Mdistinct, F2 = Mdisjoint with their
// coordination-freeness witnesses (Theorems 4.3–4.5). Each row prints
// the paper's claim next to the machine-checked observation; a row
// prints ok only when every check it makes holds, and `go test` compares
// the whole printout with experiments_output.txt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/ilog"
	"repro/internal/monotone"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/transducer"
)

type experiment struct {
	id    string
	claim string
	run   func(reg *obs.Registry) (string, bool)
}

// reportRow is one machine-readable result row: the paper's claim, the
// checked observation, and the run's counters/gauges (schedule counts,
// message flows, transitions), so the X1–X7 columns of EXPERIMENTS.md
// can be regenerated from the JSON report alone.
type reportRow struct {
	ID       string           `json:"id"`
	Claim    string           `json:"claim"`
	OK       bool             `json:"ok"`
	Observed string           `json:"observed"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

type report struct {
	Paper    string      `json:"paper"`
	Rows     []reportRow `json:"rows"`
	Matrix   []matrixRow `json:"matrix"`
	Failures int         `json:"failures"`
}

func main() {
	metricsPath := flag.String("metrics", "", `write the machine-readable result matrix as JSON to this file ("-" = stdout)`)
	adminAddr := flag.String("admin", "", "serve the admin endpoint (/metrics /debug/pprof) on this address (e.g. localhost:6060)")
	flag.Parse()
	if err := checkArgs(flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	admin.StartBackground("experiments", *adminAddr, nil)

	rep := run(os.Stdout)
	writeReport(rep, *metricsPath)
	if rep.Failures > 0 {
		os.Exit(1)
	}
}

// run checks every row and the bounded matrix and prints them to w in
// table order, as experiments_output.txt holds them. The rows and the
// matrix run concurrently, at most GOMAXPROCS at once, each row on a
// registry of its own.
func run(w io.Writer) report {
	const maxBound = 3
	exps := allExperiments()
	rep := report{
		Paper: "Ameloot, Ketsman, Neven, Zinn: Weaker Forms of Monotonicity for Declarative Networking (PODS 2014)",
		Rows:  make([]reportRow, len(exps)),
	}
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			f()
		}()
	}
	for k, e := range exps {
		spawn(func() {
			reg := obs.NewRegistry()
			observed, ok := e.run(reg)
			snap := reg.Snapshot()
			rep.Rows[k] = reportRow{
				ID: e.id, Claim: e.claim, OK: ok, Observed: observed,
				Counters: snap.Counters, Gauges: snap.Gauges,
			}
		})
	}
	spawn(func() { rep.Matrix = boundedMatrix(maxBound, 150) })
	wg.Wait()

	fmt.Fprintln(w, "Reproduction matrix — Ameloot, Ketsman, Neven, Zinn: \"Weaker Forms of Monotonicity\" (PODS 2014)")
	fmt.Fprintln(w)
	for _, r := range rep.Rows {
		status := "ok  "
		if !r.OK {
			status = "FAIL"
			rep.Failures++
		}
		fmt.Fprintf(w, "[%s] %-8s %-58s  %s\n", status, r.ID, r.Claim, r.Observed)
	}
	fmt.Fprintln(w)
	rep.Failures += printMatrix(w, rep.Matrix, 2*maxBound)
	fmt.Fprintln(w)
	if rep.Failures > 0 {
		fmt.Fprintf(w, "%d experiments FAILED\n", rep.Failures)
	} else {
		fmt.Fprintf(w, "all %d experiments and the bounded-hierarchy matrix reproduced\n", len(exps))
	}
	return rep
}

// allExperiments lists the rows of the reproduction matrix in print
// order.
func allExperiments() []experiment {
	var exps []experiment
	for _, part := range [][]experiment{figure1Experiments(), lemma32Experiments(), figure2FragmentExperiments(),
		transducerExperiments(), faultExperiments(), netsimExperiments()} {
		exps = append(exps, part...)
	}
	return exps
}

// writeReport dumps the JSON report ("" = disabled, "-" = stdout).
func writeReport(rep report, path string) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
}

// checkArgs refuses positional arguments: experiments takes none, so a stray
// one is a mistake to report, not a word to ignore.
func checkArgs(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(1)
}

// separation checks that (i, j) — allowed by class c — is a
// monotonicity violation for q: the exact witness that q ∉ c.
func separation(q monotone.Query, c monotone.Class, i, j *fact.Instance) (string, bool) {
	if !c.Allows(j, i.Known()) {
		return "witness pair not allowed by class", false
	}
	w, err := monotone.CheckPair(q, i, j)
	if err != nil {
		return err.Error(), false
	}
	if w == nil {
		return "no violation (separation lost)", false
	}
	return fmt.Sprintf("%s ∉ %v: %v dropped", q.Name(), c, w.Missing), true
}

// membership searches trials pairs drawn by s and allowed by c for a
// violation; a clean search is the evidence that q ∈ c.
func membership(q monotone.Query, c monotone.Class, s monotone.Sampler, trials int) (string, bool) {
	w, err := monotone.FindViolation(q, c, monotone.ClassSampler(c, s), 1234, trials)
	if err != nil {
		return err.Error(), false
	}
	if w != nil {
		return fmt.Sprintf("unexpected violation: %v", w), false
	}
	return fmt.Sprintf("%s ∈ %v (%d sampled pairs clean)", q.Name(), c, trials), true
}

// graphPairs samples a random graph I and a graph J over I's values and
// as many fresh ones, so every class keeps candidates after restriction.
func graphPairs(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
	i := generate.RandomGraph(rng, "v", 4, 5)
	pool := append(generate.Values("v", 4), generate.Values("w", 4)...)
	j := generate.Random(rng, fact.GraphSchema(), pool, 4)
	return i, j
}

func figure1Experiments() []experiment {
	return []experiment{
		{"F1.1a", "NoLoop ∈ Mdistinct \\ M (M ⊊ Mdistinct)", func(reg *obs.Registry) (string, bool) {
			s1, ok1 := separation(queries.NoLoop(), monotone.M,
				fact.MustParseInstance(`E(a,b)`), fact.MustParseInstance(`E(a,a)`))
			if !ok1 {
				return s1, false
			}
			return membership(queries.NoLoop(), monotone.MDistinct, graphPairs, 300)
		}},
		{"F1.1b", "QTC ∈ Mdisjoint \\ Mdistinct (Mdistinct ⊊ Mdisjoint)", func(reg *obs.Registry) (string, bool) {
			s1, ok1 := separation(queries.ComplementTC(), monotone.MDistinct,
				fact.MustParseInstance(`E(a,a) E(b,b)`), fact.MustParseInstance(`E(a,c) E(c,b)`))
			if !ok1 {
				return s1, false
			}
			return membership(queries.ComplementTC(), monotone.MDisjoint, graphPairs, 300)
		}},
		{"F1.1c", "Q_triangles ∈ C \\ Mdisjoint (Mdisjoint ⊊ C)", func(reg *obs.Registry) (string, bool) {
			return separation(queries.TrianglesUnlessTwoDisjoint(), monotone.MDisjoint,
				generate.Triangle("a", "b", "c"), generate.Triangle("x", "y", "z"))
		}},
		{"F1.2", "M = Mⁱ (violations shrink to |J| = 1)", func(reg *obs.Registry) (string, bool) {
			s, ok := separation(queries.NoLoop(), monotone.Mi(1),
				fact.MustParseInstance(`E(a,b)`), fact.MustParseInstance(`E(a,a)`))
			if !ok {
				return s, false
			}
			if s, ok := separation(queries.ComplementTC(), monotone.Mi(1),
				fact.MustParseInstance(`E(a,x) E(y,b)`), fact.MustParseInstance(`E(x,y)`)); !ok {
				return s, false
			}
			// TC ∈ M stays clean in every bounded class.
			for i := 1; i <= 3; i++ {
				if s, ok := membership(queries.TC(), monotone.Mi(i), graphPairs, 200); !ok {
					return s, false
				}
			}
			return s, true
		}},
		{"F1.3", "Q⁴clique ∈ M²distinct \\ M³distinct", func(reg *obs.Registry) (string, bool) {
			i := generate.Clique("v", 3)
			j := fact.NewInstance()
			for _, v := range generate.Values("v", 3) {
				j.Add(fact.New("E", "center", v))
			}
			s1, ok1 := separation(queries.KClique(4), monotone.MiDistinct(3), i, j)
			if !ok1 {
				return s1, false
			}
			return membership(queries.KClique(4), monotone.MiDistinct(2), graphPairs, 300)
		}},
		{"F1.4", "Q³star ∈ M²disjoint \\ M³disjoint", func(reg *obs.Registry) (string, bool) {
			s1, ok1 := separation(queries.KStar(3), monotone.MiDisjoint(3),
				fact.MustParseInstance(`E(a,b)`), generate.Star("c", "s", 3))
			if !ok1 {
				return s1, false
			}
			return membership(queries.KStar(3), monotone.MiDisjoint(2), graphPairs, 300)
		}},
		{"F1.5", "Q³clique ∈ M²disjoint \\ M²distinct", func(reg *obs.Registry) (string, bool) {
			i := generate.Clique("v", 2)
			j := fact.MustParseInstance(`E(center,v0) E(center,v1)`)
			s1, ok1 := separation(queries.KClique(3), monotone.MiDistinct(2), i, j)
			if !ok1 {
				return s1, false
			}
			return membership(queries.KClique(3), monotone.MiDisjoint(2), graphPairs, 300)
		}},
		{"F1.6", "Q³star ∈ M²disjoint \\ Mⁱdistinct", func(reg *obs.Registry) (string, bool) {
			return separation(queries.KStar(3), monotone.MiDistinct(1),
				generate.Star("c", "s", 2), fact.MustParseInstance(`E(c,new)`))
		}},
		{"F1.7", "Q³duplicate ∈ Mⁱdistinct \\ M³disjoint (i < 3)", func(reg *obs.Registry) (string, bool) {
			dup := fact.MustParseInstance(`R1(x,y) R2(x,y) R3(x,y)`)
			return separation(queries.Duplicate(3), monotone.MiDisjoint(3),
				fact.MustParseInstance(`R1(a,b)`), dup)
		}},
	}
}

func lemma32Experiments() []experiment {
	return []experiment{
		{"L3.2a", "H ⊊ Hinj: ≠-query dies under value collapse", func(reg *obs.Registry) (string, bool) {
			q := datalog.MustQuery(datalog.MustParseProgram(`O(x,y) :- E(x,y), x != y.`), "O")
			i := fact.MustParseInstance(`E(a,b)`)
			h := fact.Hom{"a": "c", "b": "c"}
			w, err := monotone.CheckHomPair(q, i, i.Map(h), h)
			if err != nil {
				return err.Error(), false
			}
			if w == nil {
				return "no collapse violation", false
			}
			// Hinj = M: NoLoop ∉ M is not preserved into a superset, and
			// TC ∈ M is preserved under injective homomorphisms.
			nw, err := monotone.CheckHomPair(queries.NoLoop(), i, fact.MustParseInstance(`E(a,b) E(a,a)`), fact.Hom{"a": "a", "b": "b"})
			if err != nil {
				return err.Error(), false
			}
			if nw == nil {
				return "NoLoop preserved under an injective homomorphism", false
			}
			hv, err := monotone.FindHomViolation(queries.TC(), func(rng *rand.Rand) *fact.Instance {
				return generate.RandomGraph(rng, "v", 4, 5)
			}, true, 11, 200)
			if err != nil {
				return err.Error(), false
			}
			if hv != nil {
				return fmt.Sprintf("TC not preserved: %v", hv), false
			}
			return fmt.Sprintf("collapse drops %v", w.From), true
		}},
		{"L3.2b", "E = Mdistinct: QTC violates extension preservation", func(reg *obs.Registry) (string, bool) {
			w, err := monotone.CheckExtensionPair(queries.ComplementTC(),
				fact.MustParseInstance(`E(a,b)`),
				fact.MustParseInstance(`E(a,b) E(b,c) E(c,a)`))
			if err != nil {
				return err.Error(), false
			}
			if w == nil {
				return "no extension violation", false
			}
			// NoLoop ∈ Mdistinct = E is preserved under extensions.
			xv, err := monotone.FindExtensionViolation(queries.NoLoop(), func(rng *rand.Rand) *fact.Instance {
				return generate.RandomGraph(rng, "v", 5, 6)
			}, 13, 300)
			if err != nil {
				return err.Error(), false
			}
			if xv != nil {
				return fmt.Sprintf("NoLoop not preserved: %v", xv), false
			}
			return fmt.Sprintf("extension drops %v", w.Missing), true
		}},
	}
}

func figure2FragmentExperiments() []experiment {
	return []experiment{
		{"F2.1", "Datalog(≠) ⊆ M", func(reg *obs.Registry) (string, bool) {
			// The ≠-restricted edges and TC; both print the same query name.
			var s string
			for _, src := range []string{
				`O(x,y) :- E(x,y), x != y.`,
				`O(x,y) :- E(x,y). O(x,z) :- O(x,y), E(y,z).`,
			} {
				p := datalog.MustParseProgram(src)
				if f := p.Classify(); f != datalog.FragDatalog && f != datalog.FragDatalogNeq {
					return fmt.Sprintf("%s classified %s", src, f), false
				}
				var ok bool
				if s, ok = membership(datalog.MustQuery(p, "O"), monotone.M, graphPairs, 300); !ok {
					return s, false
				}
			}
			return s, true
		}},
		{"F2.2", "SP-Datalog ⊆ Mdistinct (= E)", func(reg *obs.Registry) (string, bool) {
			nonEdges := datalog.MustParseProgram(`
				Adom(x) :- E(x,y).
				Adom(y) :- E(x,y).
				O(x,y) :- Adom(x), Adom(y), !E(x,y), !E(y,x), x != y.
			`)
			for _, p := range []*datalog.Program{queries.NoLoopProgram(), nonEdges} {
				if f := p.Classify(); f != datalog.FragSPDatalog {
					return fmt.Sprintf("SP program classified %s", f), false
				}
			}
			if s, ok := membership(datalog.MustQuery(nonEdges, "O"), monotone.MDistinct, graphPairs, 300); !ok {
				return s, false
			}
			return membership(queries.NoLoopDatalog(), monotone.MDistinct, graphPairs, 300)
		}},
		{"F2.3", "Thm 5.3: semicon-Datalog¬ ⊆ Mdisjoint (QTC program)", func(reg *obs.Registry) (string, bool) {
			if !queries.ComplementTCProgram().IsSemiConnected() {
				return "QTC program not classified semicon", false
			}
			for _, p := range []*datalog.Program{queries.Example51P1(), queries.NoLoopProgram()} {
				if !p.IsSemiConnected() {
					return fmt.Sprintf("not classified semicon: %s", p), false
				}
				if s, ok := membership(datalog.MustQuery(p, "O"), monotone.MDisjoint, graphPairs, 300); !ok {
					return s, false
				}
			}
			return membership(queries.ComplementTCDatalog(), monotone.MDisjoint, graphPairs, 300)
		}},
		{"F2.4", "Lemma 5.2: con-Datalog¬ distributes over components", func(reg *obs.Registry) (string, bool) {
			p := queries.Example51P1()
			if !p.Memberships().Has(datalog.FragConDatalog) {
				return "P1 not con", false
			}
			q := datalog.MustQuery(p, "O")
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 30; trial++ {
				i := generate.DisjointUnion(
					generate.RandomGraph(rng, "v", 3, 3),
					generate.RandomGraph(rng, "w", 3, 3))
				whole, err := q.Eval(i)
				if err != nil {
					return err.Error(), false
				}
				parts := fact.NewInstance()
				for _, c := range fact.Components(i) {
					pc, err := q.Eval(c)
					if err != nil {
						return err.Error(), false
					}
					if len(pc.ADom().Minus(c.ADom())) > 0 {
						return fmt.Sprintf("output %v escapes its component %v", pc, c), false
					}
					parts.AddAll(pc)
				}
				if !whole.Equal(parts) {
					return fmt.Sprintf("distribution failed on %v", i), false
				}
			}
			return "P1(I) = ∪ P1(co(I)) on 30 multi-component inputs", true
		}},
		{"F2.5", "Example 5.1: P1 ∈ con \\ Mdistinct; P2 ∉ semicon, ∉ Mdisjoint", func(reg *obs.Registry) (string, bool) {
			p1, p2 := queries.Example51P1(), queries.Example51P2()
			if p1.Classify() != datalog.FragConDatalog {
				return "P1 misclassified", false
			}
			if p2.IsSemiConnected() {
				return "P2 wrongly semicon", false
			}
			q1 := datalog.MustQuery(p1, "O")
			if s, ok := separation(q1, monotone.MDistinct,
				fact.MustParseInstance(`E(a,b)`), fact.MustParseInstance(`E(b,c) E(c,a)`)); !ok {
				return s, false
			}
			q2 := datalog.MustQuery(p2, "O")
			return separation(q2, monotone.MDisjoint,
				generate.Triangle("a", "b", "c"), generate.Triangle("x", "y", "z"))
		}},
		{"F2.6", "non-semicon Q³clique program ∉ Mdisjoint", func(reg *obs.Registry) (string, bool) {
			if queries.KCliqueProgram(3).IsSemiConnected() {
				return "Q³clique program wrongly semicon", false
			}
			return separation(queries.KClique(3), monotone.MDisjoint,
				fact.MustParseInstance(`E(a,b)`), generate.Triangle("x", "y", "z"))
		}},
		{"F2.7", "Thm 5.4: semicon-wILOG¬ ⊆ Mdisjoint (invention program)", func(reg *obs.Registry) (string, bool) {
			// Invent an id per edge, then join ids along paths of length 2.
			p := ilog.MustParseProgram(`
				Id(*, x, y) :- E(x,y).
				O(x,z)      :- Id(i, x, y), Id(j, y, z).
			`)
			if !p.IsSemiConnected() || !p.IsWeaklySafe("O") {
				return "invention program not semicon and weakly safe for O", false
			}
			q := monotone.NewGraphFunc("wILOG-path2", fact.MustSchema(map[string]int{"O": 2}),
				func(i *fact.Instance) (*fact.Instance, error) {
					return p.EvalQuery(i, []string{"O"}, ilog.Options{})
				})
			out, err := q.Eval(fact.MustParseInstance(`E(a,b) E(b,c)`))
			if err != nil {
				return err.Error(), false
			}
			if !out.Equal(fact.MustParseInstance(`O(a,c)`)) {
				return fmt.Sprintf("path2 = %v", out), false
			}
			return membership(q, monotone.MDisjoint, graphPairs, 300)
		}},
	}
}

func transducerExperiments() []experiment {
	net := transducer.MustNetwork("n1", "n2", "n3")
	graph := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d)`)
	game := fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c) Move(d,e)`)

	check := func(reg *obs.Registry, s core.Strategy, q monotone.Query, pol transducer.Policy, in *fact.Instance) (string, bool) {
		want, err := q.Eval(in)
		if err != nil {
			return err.Error(), false
		}
		res, err := core.ComputeRun(s, q, net, pol, in, core.RunConfig{Reg: reg})
		if err != nil {
			return err.Error(), false
		}
		if !res.Output.Equal(want) {
			return fmt.Sprintf("distributed %v != central %v", res.Output, want), false
		}
		ok, err := core.VerifyCoordinationFree(s, q, net, in)
		if err != nil {
			return err.Error(), false
		}
		if !ok {
			return "no heartbeat witness", false
		}
		return fmt.Sprintf("consistent on 3 nodes, %d msgs, heartbeat witness ok", res.Metrics.MessagesSent), true
	}

	return []experiment{
		{"F2.8", "F0 = M: broadcast computes TC on any policy, coord-free", func(reg *obs.Registry) (string, bool) {
			return check(reg, core.Broadcast, queries.TC(), transducer.HashPolicy(net), graph)
		}},
		{"F2.9", "Thm 4.3 (F1 = Mdistinct): absence computes NoLoop", func(reg *obs.Registry) (string, bool) {
			return check(reg, core.Absence, queries.NoLoop(), transducer.HashPolicy(net), graph)
		}},
		{"F2.10a", "Thm 4.4 (F2 = Mdisjoint): domain-request computes QTC", func(reg *obs.Registry) (string, bool) {
			return check(reg, core.DomainRequest, queries.ComplementTC(),
				transducer.DomainGuided(transducer.HashAssignment(net)), graph)
		}},
		{"F2.10b", "win-move ∈ F2: coordination-free under domain guidance", func(reg *obs.Registry) (string, bool) {
			return check(reg, core.DomainRequest, queries.WinMove(),
				transducer.DomainGuided(transducer.HashAssignment(net)), game)
		}},
		{"F2.11", "Thm 4.5: strategies never read All (A0/A1/A2 models)", func(reg *obs.Registry) (string, bool) {
			for _, s := range []core.Strategy{core.Broadcast, core.Absence, core.DomainRequest} {
				if s.RequiredModel().ShowAll {
					return fmt.Sprintf("%v uses All", s), false
				}
			}
			return "broadcast oblivious; absence/domain-request run All-free", true
		}},
		{"N1", "F0 ⊊ F1 operationally: absence strategy needs policyR", func(reg *obs.Registry) (string, bool) {
			q := queries.NoLoop()
			in := fact.MustParseInstance(`E(a,b) E(a,a)`)
			pol := transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
				if f.Equal(fact.New("E", "a", "a")) {
					return []transducer.NodeID{"n2"}
				}
				return []transducer.NodeID{"n1"}
			})
			tr, err := core.Build(core.Absence, q)
			if err != nil {
				return err.Error(), false
			}
			two := transducer.MustNetwork("n1", "n2")
			sim, err := transducer.NewSimulation(two, tr, pol, transducer.Original, in)
			if err != nil {
				return err.Error(), false
			}
			out, err := sim.RunToQuiescence(64)
			if err != nil {
				return err.Error(), false
			}
			if !out.Has(fact.New("O", "a")) {
				return "expected premature O(a) without policy relations", false
			}
			return "without policyR the strategy emits the wrong O(a)", true
		}},
		{"N2", "F1 ⊊ F2 operationally: domain-request needs domain guidance", func(reg *obs.Registry) (string, bool) {
			q := queries.ComplementTC()
			in := fact.MustParseInstance(`E(a,b) E(b,a)`)
			two := transducer.MustNetwork("n1", "n2")
			pol := transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
				if f.Equal(fact.New("E", "b", "a")) {
					return []transducer.NodeID{"n2"}
				}
				return []transducer.NodeID{"n1"}
			})
			res, err := core.Compute(core.DomainRequest, q, two, pol, in, 0)
			if err != nil {
				return err.Error(), false
			}
			if res.Output.Empty() {
				return "expected wrong outputs on a non-guided policy", false
			}
			return fmt.Sprintf("non-guided policy yields %d wrong facts", res.Output.Len()), true
		}},
		{"D1", "§7: doubled program — connected WFS stays in Mdisjoint", func(reg *obs.Registry) (string, bool) {
			p := queries.WinMoveProgram()
			d, err := queries.DoubledProgram(p)
			if err != nil {
				return err.Error(), false
			}
			if !d.Memberships().Has(datalog.FragConDatalog) {
				return "doubled win-move not stratifiable+connected", false
			}
			// Agreement with the direct alternating fixpoint on samples.
			rng := rand.New(rand.NewSource(3))
			for trial := 0; trial < 20; trial++ {
				g := generate.Random(rng, queries.MoveSchema, generate.Values("p", 4), 5)
				a, err := queries.WellFounded(p, g)
				if err != nil {
					return err.Error(), false
				}
				b, err := queries.WellFoundedViaDoubled(p, g)
				if err != nil {
					return err.Error(), false
				}
				if !a.True.Equal(b.True) || !a.Undefined.Equal(b.Undefined) {
					return "doubled vs direct WFS disagree", false
				}
			}
			return "doubled(win-move) ∈ con-Datalog¬, agrees with direct WFS (20 samples)", true
		}},
	}
}

// faultExperiments stress-tests the Figure 2 equalities against
// adversarial delivery: every theorem is quantified over all fair
// runs, so each strategy must survive starvation schedules, greedy
// fresh-value adversaries, and ≥ 1000 seeded fault plans (duplication,
// delay, partitions, stalls, crash-restart) on a query inside its
// class — while the same explorer, pointed one class up, rediscovers
// the known wrong-fact divergences automatically.
func faultExperiments() []experiment {
	net := transducer.MustNetwork("n1", "n2", "n3")
	graph := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d) E(d,e)`)
	cycle := fact.MustParseInstance(`E(a,b) E(b,x) E(x,a)`)
	twoTriangles := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(x,y) E(y,z) E(z,x)`)
	hash := transducer.HashPolicy(net)
	guided := transducer.DomainGuided(transducer.HashAssignment(net))

	clean := func(reg *obs.Registry, s core.Strategy, q monotone.Query, pol transducer.Policy, in *fact.Instance, seeds int) (string, bool) {
		v, stats, err := core.ExploreStrategy(s, q, net, pol, in, transducer.ExploreOptions{
			Seeds:  seeds,
			Faults: core.FaultConfigFor(s),
		})
		if err != nil {
			return err.Error(), false
		}
		stats.Publish(reg)
		if v != nil {
			return fmt.Sprintf("unexpected violation: %v", v), false
		}
		return fmt.Sprintf("%d schedules clean (%d seeded fault plans, %d transitions)",
			stats.Schedules, seeds, stats.Transitions), true
	}
	rediscover := func(reg *obs.Registry, s core.Strategy, q monotone.Query, pol transducer.Policy, in *fact.Instance) (string, bool) {
		v, stats, err := core.ExploreStrategy(s, q, net, pol, in, transducer.ExploreOptions{
			Seeds:  100,
			Faults: core.FaultConfigFor(s),
		})
		if err != nil {
			return err.Error(), false
		}
		stats.Publish(reg)
		if v == nil {
			return fmt.Sprintf("divergence NOT rediscovered in %d schedules", stats.Schedules), false
		}
		return fmt.Sprintf("%v: %v after %d schedules", v.Kind, v.Bad, stats.Schedules), true
	}

	return []experiment{
		{"X1", "fairness stress: broadcast/TC clean on 1000 fault plans", func(reg *obs.Registry) (string, bool) {
			return clean(reg, core.Broadcast, queries.TC(), hash, graph, 1000)
		}},
		{"X2", "fairness stress: absence/NoLoop clean on 1000 fault plans", func(reg *obs.Registry) (string, bool) {
			return clean(reg, core.Absence, queries.NoLoop(), hash, graph, 1000)
		}},
		{"X3", "fairness stress: domainreq/QTC clean on 1000 fault plans", func(reg *obs.Registry) (string, bool) {
			return clean(reg, core.DomainRequest, queries.ComplementTC(), guided, graph, 1000)
		}},
		{"X4", "explorer rediscovers broadcast ∉ F1 (NoLoop wrong fact)", func(reg *obs.Registry) (string, bool) {
			return rediscover(reg, core.Broadcast, queries.NoLoop(), hash, graph)
		}},
		{"X5", "explorer rediscovers absence ∉ F2 (QTC wrong fact)", func(reg *obs.Registry) (string, bool) {
			return rediscover(reg, core.Absence, queries.ComplementTC(), hash, cycle)
		}},
		{"X6", "explorer rediscovers domainreq ∉ C-free (triangles)", func(reg *obs.Registry) (string, bool) {
			return rediscover(reg, core.DomainRequest, queries.TrianglesUnlessTwoDisjoint(), guided, twoTriangles)
		}},
		{"X7", "crash-restart falsifies domainreq's Xok certificates", func(reg *obs.Registry) (string, bool) {
			// Unlike X3, hand the explorer crashy plans: the Xok message
			// asserts requester *state* ("all facts of this value are
			// stored"), which a restart wipes while the recovery
			// rebroadcast re-delivers the stale certificate. Broadcast
			// and absence messages state global truths about the input,
			// so X1/X2 survive the same crash mix.
			v, stats, err := core.ExploreStrategy(core.DomainRequest, queries.ComplementTC(), net, guided, graph,
				transducer.ExploreOptions{Seeds: 1000, Faults: transducer.DefaultFaultConfig()})
			if err != nil {
				return err.Error(), false
			}
			stats.Publish(reg)
			if v == nil {
				return fmt.Sprintf("crash divergence NOT found in %d schedules", stats.Schedules), false
			}
			return fmt.Sprintf("%v: %v under %s", v.Kind, v.Bad, v.Schedule), true
		}},
	}
}

// netsimExperiments exercises the event scheduler (internal/netsim):
// the explorer and both schedulers of the one machine on the X1–X7
// configuration, gossip convergence across the topology catalog, and
// the thousand-node determinism + scheduler-efficiency acceptance run.
func netsimExperiments() []experiment {
	net := transducer.MustNetwork("n1", "n2", "n3")
	graph := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d) E(d,e)`)
	hash := transducer.HashPolicy(net)

	return []experiment{
		{"X8", "one machine, two schedulers: explorer clean, dense and event runs reach Q(I)", func(reg *obs.Registry) (string, bool) {
			const seeds = 200
			schedules := 0
			for _, row := range []struct {
				s core.Strategy
				q monotone.Query
			}{
				{core.Broadcast, queries.TC()},
				{core.Gossip, queries.TC()},
				{core.Absence, queries.NoLoop()},
			} {
				cfg := core.FaultConfigFor(row.s)
				v, st, err := core.ExploreStrategy(row.s, row.q, net, hash, graph,
					transducer.ExploreOptions{Seeds: seeds, Faults: cfg})
				if err != nil {
					return err.Error(), false
				}
				if v != nil {
					return fmt.Sprintf("%v: unexpected violation %v", row.s, v), false
				}
				st.Publish(reg)
				schedules += st.Schedules

				// The explorer's seeded fault plans again, each under both
				// schedulers of the one machine.
				tr, err := core.Build(row.s, row.q)
				if err != nil {
					return err.Error(), false
				}
				want, err := row.q.Eval(graph)
				if err != nil {
					return err.Error(), false
				}
				for seed := int64(1); seed <= seeds; seed++ {
					plan := transducer.RandomFaultPlan(net, seed, cfg)
					for _, sched := range []string{"dense", "event"} {
						s, err := netsim.New(net, tr, hash, row.s.RequiredModel(), graph, netsim.Options{Seed: seed})
						if err != nil {
							return err.Error(), false
						}
						s.SetFaults(plan)
						var out *fact.Instance
						if sched == "dense" {
							out, err = s.RunToQuiescence(1 << 10)
						} else {
							out, err = s.Run()
						}
						if err != nil {
							return fmt.Sprintf("%v seed %d %s: %v", row.s, seed, sched, err), false
						}
						if !out.Equal(want) || !s.Conserved() {
							return fmt.Sprintf("%v seed %d %s: reached Q(I) %v, conserved %v", row.s, seed, sched, out.Equal(want), s.Conserved()), false
						}
					}
				}
			}
			return fmt.Sprintf("3 strategies, %d schedules clean; %d fault plans each, dense and event runs reach Q(I), conservation held", schedules, seeds), true
		}},
		{"X9", "gossip(M) converges on every catalog topology under faults", func(reg *obs.Registry) (string, bool) {
			tr, err := core.Build(core.Gossip, queries.TC())
			if err != nil {
				return err.Error(), false
			}
			want, err := queries.TC().Eval(graph)
			if err != nil {
				return err.Error(), false
			}
			runs, events := 0, 0
			for _, kind := range []generate.TopoKind{
				generate.TopoRing, generate.TopoStar, generate.TopoTree, generate.TopoPowerLaw, generate.TopoWAN,
			} {
				topo, err := generate.NewTopology(kind, 256, 19)
				if err != nil {
					return err.Error(), false
				}
				bigNet := netsim.NetworkOf(topo)
				v, stats, err := netsim.Sweep(topo, netsim.RouteNeighbors, tr,
					transducer.HashPolicy(bigNet), core.Gossip.RequiredModel(), graph, want,
					netsim.SweepOptions{Seeds: 5, Faults: core.FaultConfigFor(core.Gossip)})
				if err != nil {
					return err.Error(), false
				}
				if v != nil {
					return fmt.Sprintf("%v: %v", kind, v), false
				}
				stats.Publish(reg)
				runs += stats.Schedules
				events += stats.Events
			}
			return fmt.Sprintf("5 topologies x 256 nodes: %d faulty runs clean (%d events), conservation held", runs, events), true
		}},
		{"X10", "1024-node power-law sweep: deterministic, ≥10x fewer sched ops", func(reg *obs.Registry) (string, bool) {
			tr, err := core.Build(core.Gossip, queries.TC())
			if err != nil {
				return err.Error(), false
			}
			want, err := queries.TC().Eval(graph)
			if err != nil {
				return err.Error(), false
			}
			topo, err := generate.NewTopology(generate.TopoPowerLaw, 1024, 23)
			if err != nil {
				return err.Error(), false
			}
			bigNet := netsim.NetworkOf(topo)
			pol := transducer.HashPolicy(bigNet)
			mod := core.Gossip.RequiredModel()

			v, stats, err := netsim.Sweep(topo, netsim.RouteNeighbors, tr, pol, mod, graph, want,
				netsim.SweepOptions{Seeds: 3, Faults: core.FaultConfigFor(core.Gossip)})
			if err != nil {
				return err.Error(), false
			}
			if v != nil {
				return fmt.Sprintf("sweep violated: %v", v), false
			}
			stats.Publish(reg)

			// Equal seeds must replay the identical event stream.
			digest := func(seed int64) (uint64, error) {
				s, err := netsim.New(bigNet, tr, pol, mod, graph, netsim.Options{
					Topo: topo, Routing: netsim.RouteNeighbors, Seed: seed,
				})
				if err != nil {
					return 0, err
				}
				h := fnv.New64a()
				s.Observe(obs.NewStream(h))
				if _, err := s.Run(); err != nil {
					return 0, err
				}
				return h.Sum64(), nil
			}
			d1, err := digest(41)
			if err != nil {
				return err.Error(), false
			}
			d2, err := digest(41)
			if err != nil {
				return err.Error(), false
			}
			if d1 != d2 {
				return "equal seeds produced different event streams", false
			}

			// Sparse-activity scheduler efficiency: a long stall window on
			// a 1024-ring leaves every other node idle; the dense schedule
			// pays one visit per node per round regardless.
			ring, err := generate.NewTopology(generate.TopoRing, 1024, 5)
			if err != nil {
				return err.Error(), false
			}
			ringNet := netsim.NetworkOf(ring)
			plan, err := transducer.ParseFaultPlan("stall=n0001@5-250000", 11)
			if err != nil {
				return err.Error(), false
			}
			build := func() (*netsim.Sim, error) {
				s, err := netsim.New(ringNet, tr, transducer.HashPolicy(ringNet), mod, graph,
					netsim.Options{Topo: ring, Routing: netsim.RouteNeighbors})
				if err == nil {
					s.SetFaults(plan)
				}
				return s, err
			}
			dense, err := build()
			if err != nil {
				return err.Error(), false
			}
			if _, err := dense.RunToQuiescence(1 << 20); err != nil {
				return err.Error(), false
			}
			evs, err := build()
			if err != nil {
				return err.Error(), false
			}
			if _, err := evs.Run(); err != nil {
				return err.Error(), false
			}
			ratio := float64(dense.Clock()) / float64(evs.SchedOps())
			if ratio < 10 {
				return fmt.Sprintf("sched-ops advantage only %.1fx (tick %d, event %d)", ratio, dense.Clock(), evs.SchedOps()), false
			}
			return fmt.Sprintf("sweep clean, streams deterministic, sched ops %.1fx fewer (tick %d vs event %d)",
				ratio, dense.Clock(), evs.SchedOps()), true
		}},
	}
}
