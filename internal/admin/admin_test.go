package admin

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

func TestEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("srv.requests").Add(7)
	reg.Latency("srv.read_ns").Observe(1500)
	tr := obs.NewTracer(16, true)
	sp := tr.Root(obs.TraceID{Conn: 1, Seq: 1}).Start("srv.req", nil)
	sp.Attr("op", "ping").Finish()

	scrapes := 0
	healthy := true
	s, err := Start("127.0.0.1:0", Options{
		Reg:          reg,
		Tracer:       tr,
		BeforeScrape: func() { scrapes++ },
		Health: func() (bool, any) {
			return healthy, map[string]any{"ok": healthy, "shards": 2}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, ct, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type %q", ct)
	}
	for _, want := range []string{
		"srv_requests 7",
		"# TYPE srv_read_ns histogram",
		`srv_read_ns_quantile{q="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if scrapes != 1 {
		t.Errorf("BeforeScrape ran %d times, want 1", scrapes)
	}

	code, ct, body = get(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, `"shards":2`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if !strings.Contains(ct, "application/json") {
		t.Errorf("/healthz content-type %q", ct)
	}
	if scrapes != 2 {
		t.Errorf("BeforeScrape ran %d times, want 2", scrapes)
	}
	healthy = false
	if code, _, _ = get(t, base+"/healthz"); code != 503 {
		t.Errorf("unhealthy /healthz status %d, want 503", code)
	}

	code, ct, body = get(t, base+"/trace?n=10")
	if code != 200 || !strings.Contains(ct, "x-ndjson") {
		t.Fatalf("/trace = %d %q", code, ct)
	}
	if !strings.Contains(body, `"span":"srv.req"`) || !strings.Contains(body, `"trace":"c1-1"`) {
		t.Errorf("/trace body %q", body)
	}
	if code, _, _ = get(t, base+"/trace?n=bogus"); code != 400 {
		t.Errorf("/trace?n=bogus status %d, want 400", code)
	}

	code, _, body = get(t, base+"/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func TestNilPlanes(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	if code, _, _ := get(t, base+"/metrics"); code != 200 {
		t.Errorf("nil-registry /metrics status %d", code)
	}
	code, _, body := get(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Errorf("default /healthz = %d %q", code, body)
	}
	if code, _, body := get(t, base+"/trace"); code != 200 || body != "" {
		t.Errorf("nil-tracer /trace = %d %q", code, body)
	}
}

// TestTraceServesEventsAndSpans: one ring holds events and spans as
// one kind of record, in the order they were recorded, and /trace
// serves both as the ring holds them — the oldest dropped first.
func TestTraceServesEventsAndSpans(t *testing.T) {
	tr := obs.NewTracer(3, true)
	tr.Emit("a.dropped", obs.F("n", 0))
	sp := tr.Root(obs.TraceID{Conn: 2, Seq: 5}).Start("srv.req", nil).SetSeq(5)
	tr.Emit("incr.apply", obs.F("seq", 1), obs.F("facts", 4))
	sp.Attr("op", "insert").Finish()
	tr.Emit("b.last")

	s, err := Start("127.0.0.1:0", Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := `{"ev":"incr.apply","seq":1,"facts":4}
{"span":"srv.req","trace":"c2-5","id":1,"parent":0,"seq":5,"start_ns":0,"dur_ns":0,"op":"insert"}
{"ev":"b.last"}
`
	if code, _, body := get(t, "http://"+s.Addr()+"/trace"); code != 200 || body != want {
		t.Errorf("/trace = %d\n%s\nwant\n%s", code, body, want)
	}
	if _, _, body := get(t, "http://"+s.Addr()+"/trace?n=1"); body != "{\"ev\":\"b.last\"}\n" {
		t.Errorf("/trace?n=1 = %q, want the newest record", body)
	}
}
