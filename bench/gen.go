package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fact"
	"repro/internal/serve"
)

// Every input the program sees is built here from the seed: request
// streams, base graphs, network inputs. Equal seeds give byte-identical
// inputs; the program never sees the seed itself.

// tcProgram is transitive closure, the paper's canonical monotone
// query and the program every serving workload maintains.
const tcProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
`

// qtcProgram is the testdata/qtc.dl shape: the complement of
// transitive closure, stratified (semicon-Datalog¬).
const qtcProgram = `
T(x,y)  :- E(x,y).
T(x,z)  :- T(x,y), E(y,z).
Adom(x) :- E(x,y).
Adom(y) :- E(x,y).
O(x,y)  :- Adom(x), Adom(y), !T(x,y).
`

// request is one generated protocol request: its wire line and the
// same request decoded, for replays below the wire.
type request struct {
	line  []byte
	req   serve.Request
	write bool
	// key identifies a read for memo accounting (op and relation);
	// fact is the single fact a write inserts or retracts.
	key     string
	fact    string
	retract bool
}

var readRequests = []request{
	{line: []byte(`{"op":"stats"}`), req: serve.Request{Op: "stats"}, key: "stats"},
	{line: []byte(`{"op":"query","rel":"E"}`), req: serve.Request{Op: "query", Rel: "E"}, key: "query E"},
	{line: []byte(`{"op":"query","rel":"T"}`), req: serve.Request{Op: "query", Rel: "T"}, key: "query T"},
}

// stream is one connection's seeded request stream. Writes churn
// directed edges over a small node set private to the connection, so
// two connections never produce overlapping deltas, every request
// succeeds, and the instance stays bounded: an edge that is present is
// retracted, an absent one inserted.
type stream struct {
	rng      *rand.Rand
	readFrac float64
	nodes    []string
	present  map[[2]int]bool
}

// churnNodes is the size of a connection's write namespace: 4 nodes
// give 12 possible edges, so the churn revisits edges and exercises
// both insert and retract.
const churnNodes = 4

func newStream(seed int64, conn int, readFrac float64) *stream {
	s := &stream{
		rng:      rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919)),
		readFrac: readFrac,
		present:  make(map[[2]int]bool),
	}
	for j := 0; j < churnNodes; j++ {
		s.nodes = append(s.nodes, fmt.Sprintf("w%dn%d", conn, j))
	}
	return s
}

func (s *stream) next() request {
	if s.rng.Float64() < s.readFrac {
		return readRequests[s.rng.Intn(len(readRequests))]
	}
	i := s.rng.Intn(len(s.nodes))
	j := s.rng.Intn(len(s.nodes) - 1)
	if j >= i {
		j++
	}
	k := [2]int{i, j}
	op, retract := "insert", s.present[k]
	if retract {
		op = "retract"
	}
	s.present[k] = !retract
	f := s.edgeText(k)
	return request{
		line:    []byte(fmt.Sprintf(`{"op":%q,"facts":[%q]}`, op, f)),
		req:     serve.Request{Op: op, Facts: []string{f}},
		write:   true,
		fact:    f,
		retract: retract,
	}
}

func (s *stream) edgeText(k [2]int) string {
	return fmt.Sprintf("E(%s,%s)", s.nodes[k[0]], s.nodes[k[1]])
}

// survivors lists the edges the stream has inserted and not retracted,
// sorted: the stream's contribution to the surviving base.
func (s *stream) survivors() []string {
	var out []string
	for k, on := range s.present {
		if on {
			out = append(out, s.edgeText(k))
		}
	}
	sort.Strings(out)
	return out
}

// labels returns n distinct values under the prefix in an order the
// rng picks, so graph shape is fixed by the workload and naming (hence
// interning and sort order) by the seed.
func labels(rng *rand.Rand, prefix string, n int) []fact.Value {
	out := make([]fact.Value, n)
	for i, p := range rng.Perm(n) {
		out[i] = fact.Value(fmt.Sprintf("%s%03d", prefix, p))
	}
	return out
}

func edge(a, b fact.Value) fact.Fact { return fact.New("E", a, b) }

// chainGraph is a directed path over n seeded labels.
func chainGraph(rng *rand.Rand, prefix string, n int) *fact.Instance {
	vs := labels(rng, prefix, n)
	out := fact.NewInstance()
	for i := 0; i+1 < n; i++ {
		out.Add(edge(vs[i], vs[i+1]))
	}
	return out
}

// randomGraph has exactly m distinct seeded edges over n labels, no
// self-loops.
func randomGraph(rng *rand.Rand, prefix string, n, m int) *fact.Instance {
	vs := labels(rng, prefix, n)
	out := fact.NewInstance()
	for out.Len() < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			out.Add(edge(vs[a], vs[b]))
		}
	}
	return out
}

// gridGraph is the directed w×h grid (edges right and down) over
// seeded labels.
func gridGraph(rng *rand.Rand, prefix string, w, h int) *fact.Instance {
	vs := labels(rng, prefix, w*h)
	out := fact.NewInstance()
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if x+1 < w {
				out.Add(edge(vs[x*h+y], vs[(x+1)*h+y]))
			}
			if y+1 < h {
				out.Add(edge(vs[x*h+y], vs[x*h+y+1]))
			}
		}
	}
	return out
}

// shardedChains builds the cluster base: one chain segment per shard,
// nodes split evenly, each segment a separate co(I) component whose
// seeded name prefix makes component placement home it on its own
// shard. Placement is a pure hash of the component's minimum value, so
// the prefix is found by a deterministic search from the seed.
func shardedChains(seed int64, nodes, shards int) (*fact.Instance, error) {
	out := fact.NewInstance()
	per := nodes / shards
	for s := 0; s < shards; s++ {
		seg, err := homedChain(seed, s, per, shards)
		if err != nil {
			return nil, err
		}
		seg.Each(func(f fact.Fact) bool { out.Add(f); return true })
	}
	return out, nil
}

func homedChain(seed int64, s, nodes, shards int) (*fact.Instance, error) {
	for salt := 0; salt < 64*shards; salt++ {
		prefix := fmt.Sprintf("g%dk%dx%d_", s, seed, salt)
		seg := fact.NewInstance()
		for j := 0; j+1 < nodes; j++ {
			seg.Add(edge(fact.Value(fmt.Sprintf("%s%03d", prefix, j)), fact.Value(fmt.Sprintf("%s%03d", prefix, j+1))))
		}
		for _, home := range cluster.PlaceInstance(seg, shards) {
			if home == s {
				return seg, nil
			}
			break
		}
	}
	return nil, fmt.Errorf("no name prefix homes chain segment %d on its shard", s)
}
