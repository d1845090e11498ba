package cluster

import "repro/internal/fact"

// mergeFactLists merges per-shard fact lists into one canonically
// sorted, duplicate-free slice. In partitioned mode the inputs are
// disjoint by construction (Theorem 5.3: shard answers are slices of
// a disjoint union), so deduplication is insurance, not load-bearing
// — but the fuzzer asserts it anyway, because a placement bug that
// double-homes a fact must surface as a test failure, not as a
// double-counted query answer.
func mergeFactLists(lists [][]fact.Fact) []fact.Fact {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]fact.Fact, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	fact.SortFacts(all)
	out := all[:0]
	for i, f := range all {
		if i > 0 && f.Equal(all[i-1]) {
			continue
		}
		out = append(out, f)
	}
	return out
}
