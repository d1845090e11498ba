// Package repro is the root of a reproduction of "Weaker Forms of
// Monotonicity for Declarative Networking: a More Fine-grained Answer
// to the CALM-conjecture" (Ameloot, Ketsman, Neven, Zinn; PODS 2014).
//
// The public API lives in the calm subpackage; cmd/experiments
// regenerates the paper's Figure 1 and Figure 2 and its test checks the
// printout against experiments_output.txt, and bench_test.go next to
// this file holds one benchmark per figure.
package repro
