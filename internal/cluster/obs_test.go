package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// chainLines builds E(n<i>,n<i+1>) insert lines over one chain — one
// connected component, so component placement keeps it partitioned.
func chainFacts(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "E(n%d,n%d)\n", i, i+1)
	}
	return sb.String()
}

// TestGatherPhaseTelemetry drives a partitioned cluster through the
// router with the full observability stack on and asserts every
// gather phase (fanout, merge, render), the write-path log append,
// and the pump delivery lag produced measurements — plus that the
// extended cluster op body carries the live per-shard progress arrays.
func TestGatherPhaseTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096, false)
	c := newTestCluster(t, tcProgram, chainFacts(8), Options{
		Shards: 2, Placement: PlaceComponent, Reg: reg, Tracer: tr,
	})
	if !c.Plan().Partitioned {
		t.Fatalf("want partitioned plan, got %+v", c.Plan())
	}
	r := NewRouter(c)

	lines := []string{
		`{"op":"insert","facts":["E(x1,x2)"]}`,
		`{"op":"query","rel":"T"}`,
		`{"op":"facts"}`,
		`{"op":"cluster"}`,
	}
	resps := routerSession(t, r, lines...)

	for _, name := range []string{
		obs.ClusterGatherNs,
		obs.ClusterGatherFanoutNs,
		obs.ClusterGatherMergeNs,
		obs.ClusterGatherRenderNs,
		obs.ClusterLogAppendNs,
	} {
		if n := reg.Latency(name).Snapshot().Count; n == 0 {
			t.Errorf("latency %s recorded no observations", name)
		}
	}
	// Delivery lag is recorded by the asynchronous pumps; the gathered
	// read above fenced on the write, so the delivery already happened.
	if n := reg.Latency(obs.ClusterDeliveryLagNs).Snapshot().Count; n == 0 {
		t.Errorf("latency %s recorded no observations", obs.ClusterDeliveryLagNs)
	}

	cl := decodeResp(t, resps[3])
	if cl.Cluster == nil {
		t.Fatalf("cluster op returned no body: %s", resps[3])
	}
	body := cl.Cluster
	if len(body.Applied) != 2 || len(body.Held) != 2 || len(body.Lag) != 2 {
		t.Fatalf("cluster body progress arrays = %+v, want length 2 each", body)
	}
	for j := range body.Lag {
		if body.Lag[j] != body.Log-body.Watermarks[j] {
			t.Errorf("shard %d lag = %d, want log-watermark = %d", j, body.Lag[j], body.Log-body.Watermarks[j])
		}
		if body.Held[j] != 0 {
			t.Errorf("shard %d held = %d, want 0 without a fault plan", j, body.Held[j])
		}
		if body.Applied[j] < 0 {
			t.Errorf("shard %d applied = %d", j, body.Applied[j])
		}
	}

	// The span plane saw the same phases, threaded under request roots.
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	stream := buf.String()
	for _, span := range []string{
		obs.SpanReq, obs.SpanGather, obs.SpanGatherFanout,
		obs.SpanGatherMerge, obs.SpanGatherRender,
		obs.SpanLogAppend, obs.SpanDeliver,
	} {
		if !strings.Contains(stream, `"span":"`+span+`"`) {
			t.Errorf("span stream missing %s:\n%s", span, stream)
		}
	}

	// PublishHealth mirrors the same progress into labeled gauges.
	c.PublishHealth()
	for j := 0; j < 2; j++ {
		name := obs.WithLabel(obs.ClusterPumpLag, "shard", fmt.Sprint(j))
		if v := reg.Gauge(name).Value(); v < 0 {
			t.Errorf("gauge %s = %d", name, v)
		}
	}
}

// TestGatherPhaseSpansMatchHistograms checks that each router-side
// phase of a partitioned cluster has one clock: with a wall-clock
// tracer and a registry on, every phase histogram counts exactly the
// spans of that phase over a session of writes and gathered reads.
func TestGatherPhaseSpansMatchHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1<<14, false)
	c := newTestCluster(t, tcProgram, chainFacts(6), Options{
		Shards: 3, Placement: PlaceComponent, Reg: reg, Tracer: tr,
	})
	if !c.Plan().Partitioned {
		t.Fatalf("want partitioned plan, got %+v", c.Plan())
	}
	before := reg.Snapshot().Latencies
	routerSession(t, NewRouter(c),
		`{"op":"insert","facts":["E(x1,x2)"]}`,
		`{"op":"query","rel":"T"}`,
		`{"op":"insert","facts":["E(y1,y2)","E(z1,z2)"]}`,
		`{"op":"facts"}`,
		`{"op":"query","rel":"T"}`,
		`{"op":"retract","facts":["E(x1,x2)"]}`,
		`{"op":"stats"}`,
		`{"op":"query","rel":"E"}`,
	)
	c.Quiesce()

	spans := spanCounts(t, tr)
	after := reg.Snapshot().Latencies
	for _, p := range []struct{ span, hist string }{
		{obs.SpanLogAppend, obs.ClusterLogAppendNs},
		{obs.SpanGather, obs.ClusterGatherNs},
		{obs.SpanGatherFanout, obs.ClusterGatherFanoutNs},
		{obs.SpanGatherMerge, obs.ClusterGatherMergeNs},
		{obs.SpanGatherRender, obs.ClusterGatherRenderNs},
	} {
		timed := after[p.hist].Count - before[p.hist].Count
		if timed == 0 || timed != spans[p.span] {
			t.Errorf("%s timed %d times and spanned %d times, want equal and nonzero", p.hist, timed, spans[p.span])
		}
	}
}

// spanCounts counts the spans the tracer's ring holds, by name, from
// the JSONL the ring renders.
func spanCounts(t *testing.T, tr *obs.Tracer) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var r struct {
			Span string `json:"span"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		counts[r.Span]++
	}
	return counts
}
