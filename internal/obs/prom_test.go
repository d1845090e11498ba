package obs

import (
	"strings"
	"testing"
)

// TestWritePromBasic renders a small registry and pins the exposition
// shape: TYPE lines, families sorted, labels quoted.
func TestWritePromBasic(t *testing.T) {
	r := NewRegistry()
	r.Counter("srv.requests").Add(5)
	r.Counter(WithLabel("coord.fence_waits", "shard", "0")).Add(2)
	r.Counter(WithLabel("coord.fence_waits", "shard", "1")).Add(3)
	r.Gauge("srv.epoch").Set(42)
	r.Latency("srv.batch_writes").Observe(4)
	r.Latency("srv.batch_writes").Observe(8)

	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE coord_fence_waits counter\n",
		`coord_fence_waits{shard="0"} 2` + "\n",
		`coord_fence_waits{shard="1"} 3` + "\n",
		"# TYPE srv_epoch gauge\nsrv_epoch 42\n",
		"srv_requests 5\n",
		"# TYPE srv_batch_writes histogram\n",
		"srv_batch_writes_sum 12\n",
		"srv_batch_writes_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Families must come out sorted, so the output is scrape-diffable.
	var fams []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] < fams[i-1] {
			t.Fatalf("families unsorted: %v", fams)
		}
	}
}

// TestWritePromLatency pins the histogram rendering: cumulative le
// buckets ending in +Inf, exact _count/_sum, and the _quantile gauge
// family a scraper reads quantiles from.
func TestWritePromLatency(t *testing.T) {
	r := NewRegistry()
	l := r.Latency("srv.read_ns")
	for i := int64(1); i <= 1000; i++ {
		l.Observe(i * 1000) // 1µs..1ms
	}
	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE srv_read_ns histogram\n") {
		t.Fatalf("missing histogram TYPE in:\n%s", out)
	}
	if !strings.Contains(out, `srv_read_ns_bucket{le="+Inf"} 1000`) {
		t.Fatalf("missing +Inf bucket in:\n%s", out)
	}
	if !strings.Contains(out, "srv_read_ns_count 1000\n") {
		t.Fatalf("missing count in:\n%s", out)
	}
	for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
		if !strings.Contains(out, `srv_read_ns_quantile{q="`+q+`"}`) {
			t.Fatalf("missing quantile %s in:\n%s", q, out)
		}
	}
	// Bucket rows must be cumulative and non-decreasing in le order,
	// with the +Inf row last and equal to the total count.
	var prev int64 = -1
	var rows int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "srv_read_ns_bucket{") {
			continue
		}
		rows++
		var v int64
		fields := strings.Fields(line)
		for _, c := range fields[len(fields)-1] {
			v = v*10 + int64(c-'0')
		}
		if v < prev {
			t.Fatalf("bucket rows not cumulative at %q (prev %d)", line, prev)
		}
		prev = v
	}
	if rows < 3 {
		t.Fatalf("want several bucket rows, got %d", rows)
	}
	if prev != 1000 {
		t.Fatalf("last bucket row = %d, want 1000", prev)
	}
	// Exactly one +Inf row.
	if n := strings.Count(out, `le="+Inf"`); n != 1 {
		t.Fatalf("%d +Inf rows, want 1", n)
	}
}

// TestWritePromDeterministic renders the same snapshot twice and
// byte-compares — map iteration must not leak into the output.
func TestWritePromDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"b.x", "a.y", "c.z"} {
		r.Counter(n).Inc()
		r.Latency(n + "_ns").Observe(100)
	}
	for i := 0; i < 4; i++ {
		r.Counter(WithLabel("cluster.pump_lag", "shard", string(rune('0'+i)))).Inc()
	}
	s := r.Snapshot()
	var b1, b2 strings.Builder
	if err := WriteProm(&b1, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b2, s); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("nondeterministic render:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

// TestPromMangle pins name mangling.
func TestPromMangle(t *testing.T) {
	if got := promMangle("srv.read_ns"); got != "srv_read_ns" {
		t.Fatalf("got %q", got)
	}
	if got := promMangle("dl.rule.s0.r1.p:2"); got != "dl_rule_s0_r1_p_2" {
		t.Fatalf("got %q", got)
	}
}
