// Command dlog evaluates Datalog¬ programs: it parses a program and an
// input instance, reports the program's fragment classification
// (Figure 2 of the paper), and prints the derived facts — under the
// stratified semantics by default, or under the well-founded semantics
// with -wfs (needed for non-stratifiable programs such as win-move).
//
// Usage:
//
//	dlog -program tc.dl -input graph.facts [-out O] [-mode seminaive]
//	dlog -program winmove.dl -input game.facts -wfs
//
// Program syntax: one rule per line, e.g.
//
//	T(x,y) :- E(x,y).
//	T(x,z) :- T(x,y), E(y,z).
//	O(x)   :- Adom(x), !T(x,x).
//
// Input syntax: one fact per line, e.g. "E(a,b)". With -adom, rules
// defining the conventional Adom relation are appended automatically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/admin"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/ilog"
	"repro/internal/obs"
	"repro/internal/queries"
)

func main() {
	var (
		programPath = flag.String("program", "", "path to the Datalog¬ program (required)")
		inputPath   = flag.String("input", "", "path to the input instance (default: empty instance)")
		outRels     = flag.String("out", "", "comma-separated output relations (default: print all derived facts)")
		mode        = flag.String("mode", "seminaive", "fixpoint evaluation mode: seminaive, naive or parallel (wide rounds fan out over GOMAXPROCS goroutines)")
		wfs         = flag.Bool("wfs", false, "evaluate under the well-founded semantics (alternating fixpoint)")
		useIlog     = flag.Bool("ilog", false, "parse as an ILOG¬ program with invention heads like Id(*, x, y)")
		adom        = flag.Bool("adom", false, "append rules computing the conventional Adom relation")
		classify    = flag.Bool("classify", true, "print the fragment classification")
		metricsPath = flag.String("metrics", "", `write engine metrics (dl.* / ilog.* counters) as JSON to this file ("-" = stdout)`)
		tracePath   = flag.String("trace", "", `write structured JSONL evaluation events to this file ("-" = stdout)`)
		adminAddr   = flag.String("admin", "", "serve the admin endpoint (/metrics /debug/pprof) on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *programPath == "" {
		fmt.Fprintln(os.Stderr, "dlog: -program is required")
		flag.Usage()
		os.Exit(2)
	}

	src, err := os.ReadFile(*programPath)
	if err != nil {
		fatal(err)
	}

	input := fact.NewInstance()
	if *inputPath != "" {
		data, err := os.ReadFile(*inputPath)
		if err != nil {
			fatal(err)
		}
		input, err = fact.ParseInstance(string(data))
		if err != nil {
			fatal(err)
		}
	}

	var reg *obs.Registry
	if *metricsPath != "" || *adminAddr != "" {
		reg = obs.NewRegistry()
	}
	admin.StartBackground("dlog", *adminAddr, reg)
	tracer, closeTrace, err := obs.OpenTrace(*tracePath)
	if err != nil {
		fatal(err)
	}
	// finish flushes -trace and dumps -metrics; every way out of main
	// that is not already a failure runs it.
	finish := obs.Finisher(closeTrace, reg, *metricsPath, fatal)

	if *useIlog {
		runIlog(string(src), input, *outRels, reg, tracer)
		finish()
		return
	}

	prog, err := datalog.ParseProgram(string(src))
	if err != nil {
		fatal(err)
	}
	if *adom {
		prog = datalog.WithAdomRules(prog)
	}

	if *classify {
		fmt.Printf("fragment: %s\n", prog.Classify())
		fmt.Printf("edb: %v  idb: %v\n", prog.EDB(), prog.IDB())
	}

	if *wfs {
		res, err := queries.WellFounded(prog, input)
		if err != nil {
			fatal(err)
		}
		printFacts("true", filterRels(res.True.Minus(input), *outRels))
		printFacts("undefined", filterRels(res.Undefined, *outRels))
		finish()
		return
	}

	evalMode, err := datalog.ParseEvalMode(*mode)
	if err != nil {
		fatal(err)
	}
	opts := datalog.FixpointOptions{Mode: evalMode, Reg: reg, Tracer: tracer}
	out, err := prog.EvalStratified(input, opts)
	if err != nil {
		fatal(err)
	}
	printFacts("derived", filterRels(out.Minus(input), *outRels))
	finish()
}

// runIlog parses and evaluates an ILOG¬ program with invention.
func runIlog(src string, input *fact.Instance, outRels string, reg *obs.Registry, tracer *obs.Tracer) {
	prog, err := ilog.ParseProgram(src)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("semi-connected: %v\n", prog.IsSemiConnected())
	full, err := prog.Eval(input, ilog.Options{Reg: reg, Tracer: tracer})
	if err != nil {
		fatal(err)
	}
	printFacts("derived", filterRels(full.Minus(input), outRels))
}

// filterRels restricts the instance to the named relations ("" keeps all).
func filterRels(i *fact.Instance, rels string) *fact.Instance {
	if rels == "" {
		return i
	}
	out := fact.NewInstance()
	for _, rel := range strings.Split(rels, ",") {
		out.AddAll(i.RestrictRel(strings.TrimSpace(rel)))
	}
	return out
}

func printFacts(label string, i *fact.Instance) {
	fmt.Printf("%s (%d facts):\n", label, i.Len())
	for _, f := range i.Facts() {
		fmt.Printf("  %s\n", f)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dlog: %v\n", err)
	os.Exit(1)
}
