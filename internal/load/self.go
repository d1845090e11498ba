package load

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/serve"
)

// SelfProgram is the embedded workload program for self-contained
// runs: transitive closure, the paper's canonical monotone query.
const SelfProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
`

// StartSelf boots an in-process calmd serving core on a loopback
// port, seeded with a chain graph of the given length, and returns
// its address plus a shutdown function. It exists so calmload (and
// CI smoke) can measure the full TCP serving stack without an
// external daemon.
func StartSelf(chain int, opts serve.Options) (addr string, shutdown func(), err error) {
	if chain < 2 {
		chain = 2
	}
	var sb strings.Builder
	for i := 0; i < chain-1; i++ {
		fmt.Fprintf(&sb, "E(n%d,n%d)\n", i, i+1)
	}
	input, err := fact.ParseInstance(sb.String())
	if err != nil {
		return "", nil, err
	}
	m, err := incr.New(datalog.MustParseProgram(SelfProgram), input, incr.Options{})
	if err != nil {
		return "", nil, err
	}
	core := serve.NewCore(m, opts)
	srv, err := serve.NewTCPServerFor(core, "127.0.0.1:0", nil)
	if err != nil {
		core.Close()
		return "", nil, err
	}
	srv.Start()
	return srv.Addr(), func() {
		srv.Close()
		core.Close()
	}, nil
}

// ClusterEndpoints is what StartCluster boots: the router's address,
// one direct address per shard (the placement-aware client path), and
// the cluster itself for tests that drive crashes or quiescence.
type ClusterEndpoints struct {
	Router  string
	Shards  []string
	Cluster *cluster.Cluster
}

// StartCluster boots an in-process sharded calmd on loopback ports:
// one cluster of the given shard count over the transitive-closure
// program, seeded with the chain workload split into shards disjoint
// chain segments — separate co(I) components with node namespaces
// chosen so component placement homes segment s on shard s. Total
// chain length is conserved across shard counts, so a shard sweep
// compares the same base workload: what changes with N is that each
// shard holds a 1/N segment whose closure is ~1/N² the size, which is
// exactly the Theorem 5.3 locality the sweep measures.
//
// The per-shard addresses serve each shard's core directly — the
// smart-client path, where the client owns placement and never pays a
// gather. The router address serves the scatter/gather path. Load
// driven at the shard endpoints bypasses the global log; don't mix it
// with router-side writes when asserting cluster invariants.
func StartCluster(chain, shards int, placement cluster.PlacementKind, opts serve.Options) (*ClusterEndpoints, func(), error) {
	if shards < 1 {
		shards = 1
	}
	if chain < 2*shards {
		chain = 2 * shards
	}
	input, err := ClusterChainInstance(chain, shards)
	if err != nil {
		return nil, nil, err
	}
	c, err := cluster.New(datalog.MustParseProgram(SelfProgram), input, cluster.Options{
		Shards:    shards,
		Placement: placement,
		Serve:     opts,
	})
	if err != nil {
		return nil, nil, err
	}
	var servers []*serve.TCPServer
	closeAll := func() {
		for _, s := range servers {
			s.Close()
		}
		c.Close()
	}
	rsrv, err := serve.NewTCPServerFor(cluster.NewRouter(c), "127.0.0.1:0", nil)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	servers = append(servers, rsrv)
	eps := &ClusterEndpoints{Router: rsrv.Addr(), Cluster: c}
	for j := 0; j < shards; j++ {
		ssrv, err := serve.NewTCPServerFor(c.ShardCore(j), "127.0.0.1:0", nil)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		servers = append(servers, ssrv)
		eps.Shards = append(eps.Shards, ssrv.Addr())
	}
	for _, s := range servers {
		s.Start()
	}
	return eps, closeAll, nil
}

// ClusterChainInstance builds the shard-sweep workload: shards
// disjoint chain segments totalling ~chain edges, segment s named so
// that component placement (hash of the component's minimum value)
// homes it on shard s. The namespace salt is searched deterministically
// — placement is a pure hash, so so is the search.
func ClusterChainInstance(chain, shards int) (*fact.Instance, error) {
	var sb strings.Builder
	per := chain / shards
	extra := chain % shards
	for s := 0; s < shards; s++ {
		nodes := per
		if s < extra {
			nodes++
		}
		if nodes < 2 {
			nodes = 2
		}
		seg, err := chainSegment(s, nodes, shards)
		if err != nil {
			return nil, err
		}
		sb.WriteString(seg)
	}
	return fact.ParseInstance(sb.String())
}

// chainSegment renders one chain segment of the given node count whose
// component placement lands on shard s.
func chainSegment(s, nodes, shards int) (string, error) {
	for salt := 0; salt < 64*shards; salt++ {
		prefix := fmt.Sprintf("g%ds%d", s, salt)
		var sb strings.Builder
		for j := 0; j < nodes-1; j++ {
			fmt.Fprintf(&sb, "E(%sn%03d,%sn%03d)\n", prefix, j, prefix, j+1)
		}
		seg, err := fact.ParseInstance(sb.String())
		if err != nil {
			return "", err
		}
		placed := cluster.PlaceInstance(seg, shards)
		for _, home := range placed {
			if home == s {
				return sb.String(), nil
			}
			break
		}
	}
	return "", fmt.Errorf("load: no namespace salt places segment %d on shard %d of %d", s, s, shards)
}
