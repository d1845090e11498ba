package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a Registry snapshot in the Prometheus text
// exposition format (version 0.0.4) — the /metrics payload of the
// admin server, with zero dependencies beyond the standard library.
//
// Name mapping: dotted registry names become underscore families
// ("srv.read_ns" → "srv_read_ns"). A registry name may carry labels
// after a ';' separator — "cluster.pump_lag;shard=0" renders as
// cluster_pump_lag{shard="0"} — so per-shard instruments share one
// family instead of exploding into numbered names (see WithLabel).
//
// Instrument mapping:
//   - Counter → counter
//   - Gauge → gauge
//   - LatencyHist → histogram with cumulative le buckets (non-empty
//     buckets only; cumulative totals stay exact), plus a
//     <name>_quantile gauge family carrying the estimated
//     p50/p90/p99/p999 so scrapers read quantiles without
//     re-deriving them from buckets

// WithLabel appends a label to a registry metric name, e.g.
// WithLabel("cluster.pump_lag", "shard", "0"). The JSON snapshot
// keeps the combined string as the key; the Prometheus renderer
// splits it back into family and label.
func WithLabel(name, key, value string) string {
	return name + ";" + key + "=" + value
}

// promFamily splits a registry name into its Prometheus family name
// and its labels as "k=v" pairs (nil when unlabeled).
func promFamily(name string) (family string, labels []string) {
	base, rest, hasLabels := strings.Cut(name, ";")
	family = promMangle(base)
	if !hasLabels || rest == "" {
		return family, nil
	}
	return family, strings.Split(rest, ",")
}

// promLabels renders "k=v" pairs (plus optional extra pairs) as a
// label block, or "" when there are none.
func promLabels(pairs []string, extra ...string) string {
	if len(pairs) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	for _, p := range append(append([]string{}, pairs...), extra...) {
		k, v, _ := strings.Cut(p, "=")
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", promMangle(k), v)
		n++
	}
	b.WriteByte('}')
	return b.String()
}

// promMangle maps a dotted name segment to a valid Prometheus metric
// name: every character outside [a-zA-Z0-9_] becomes '_'.
func promMangle(s string) string {
	b := []byte(s)
	for i, c := range b {
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

// promFam collects one family's fully rendered sample lines. sortKey
// orders series deterministically without re-parsing the rendered
// line (bucket rows carry a numeric key so le order survives the
// lexical sort).
type promFam struct {
	typ  string
	keys []string
	rows []string
}

func (f *promFam) add(sortKey, line string) {
	f.keys = append(f.keys, sortKey)
	f.rows = append(f.rows, line)
}

// WriteProm renders the snapshot in Prometheus text exposition
// format. Output is deterministically ordered: families sorted by
// name, series sorted within each family.
func WriteProm(w io.Writer, s Snapshot) error {
	fams := map[string]*promFam{}
	fam := func(family, typ string) *promFam {
		f, ok := fams[family]
		if !ok {
			f = &promFam{typ: typ}
			fams[family] = f
		}
		return f
	}

	for name, v := range s.Counters {
		family, pairs := promFamily(name)
		lb := promLabels(pairs)
		fam(family, "counter").add(lb, fmt.Sprintf("%s%s %d", family, lb, v))
	}
	for name, v := range s.Gauges {
		family, pairs := promFamily(name)
		lb := promLabels(pairs)
		fam(family, "gauge").add(lb, fmt.Sprintf("%s%s %d", family, lb, v))
	}
	for name, l := range s.Latencies {
		family, pairs := promFamily(name)
		lb := promLabels(pairs)
		f := fam(family, "histogram")
		cum := int64(0)
		for i, b := range l.Buckets {
			if b.Le == maxInt64 {
				continue // the overflow bucket is the +Inf row below
			}
			cum += b.Count
			f.add(fmt.Sprintf("%s 0bucket %020d", lb, i),
				fmt.Sprintf("%s_bucket%s %d", family, promLabels(pairs, fmt.Sprintf("le=%d", b.Le)), cum))
		}
		f.add(lb+" 1binf", fmt.Sprintf("%s_bucket%s %d", family, promLabels(pairs, "le=+Inf"), l.Count))
		f.add(lb+" 2sum", fmt.Sprintf("%s_sum%s %d", family, lb, l.Sum))
		f.add(lb+" 3count", fmt.Sprintf("%s_count%s %d", family, lb, l.Count))
		fq := fam(family+"_quantile", "gauge")
		for _, qv := range []struct {
			q string
			v int64
		}{{"0.5", l.P50}, {"0.9", l.P90}, {"0.99", l.P99}, {"0.999", l.P999}} {
			qlb := promLabels(pairs, "q="+qv.q)
			fq.add(qlb, fmt.Sprintf("%s_quantile%s %d", family, qlb, qv.v))
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		order := make([]int, len(f.rows))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return f.keys[order[a]] < f.keys[order[b]] })
		for _, i := range order {
			if _, err := fmt.Fprintln(w, f.rows[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

const maxInt64 = int64(^uint64(0) >> 1)
