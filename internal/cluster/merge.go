package cluster

import "repro/internal/fact"

// mergeFactLists merges per-shard runs — canonically sorted fact lists
// with their wire text, index for index — into the text of their sorted
// union: a k-way merge that takes the least head until none is left, so
// nothing is sorted or rendered again and only the merged text is
// allocated. In partitioned mode the inputs are disjoint by construction
// (Theorem 5.3), so dropping a fact equal to the one before it is
// insurance — but the fuzzer asserts it, because a placement bug that
// double-homes a fact must fail a test, not double-count an answer. The
// runs are only read; facts and text, the slices of them, are consumed.
func mergeFactLists(facts [][]fact.Fact, text [][]string) []string {
	n := 0
	for _, fs := range facts {
		n += len(fs)
	}
	out := make([]string, 0, n)
	var last *fact.Fact
	for {
		least := -1
		for i, fs := range facts {
			if len(fs) > 0 && (least < 0 || fs[0].Compare(facts[least][0]) < 0) {
				least = i
			}
		}
		if least < 0 {
			return out
		}
		if f := &facts[least][0]; last == nil || !f.Equal(*last) {
			out, last = append(out, text[least][0]), f
		}
		facts[least], text[least] = facts[least][1:], text[least][1:]
	}
}
