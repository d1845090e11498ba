package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/serve"
)

// TestClusterDeterminismReplicated is the cross-shard equivalence
// battery for replicated mode: concurrent clients hammer the router
// over TCP with seeded interleaved reads and writes, across shard
// counts and seeds; afterwards a single-node oracle replays the
// committed delta sequence and every routed read is byte-compared
// against the pure read function of the oracle epoch with the same
// sequence number.
//
// This is the strongest possible statement of "a sharded deployment
// is the single node": replicated shards apply the identical global
// log, so shard sequence numbers ARE oracle sequence numbers, and a
// response differing in one byte — fact order, field order, a count —
// fails the test. It subsumes convergence (the final fact sets are
// also byte-compared).
func TestClusterDeterminismReplicated(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, seed := range []int64{1, 2, 3} {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runClusterDeterminism(t, shards, seed)
			})
		}
	}
}

// detRead is one recorded read: the request, the epoch that answered
// it, and the exact wire line the router sent.
type detRead struct {
	req   serve.Request
	epoch int
	raw   string
}

func runClusterDeterminism(t *testing.T, shards int, seed int64) {
	const (
		clients = 4
		steps   = 40
	)
	// A static loop so OnLoop and Off are non-empty from the start.
	const input = "E(h0,h1)\nE(h1,h2)\nE(h2,h0)\n"

	c := newTestCluster(t, negProgram, input, Options{
		Shards: shards,
		Serve:  serve.Options{MaxBatch: 8, Pipeline: 16},
	})
	srv, err := serve.NewTCPServerFor(NewRouter(c), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Start()

	var (
		mu     sync.Mutex
		writes = make(map[int]serve.Request) // shard seq -> the write that committed it
		reads  []detRead
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := detClient(srv.Addr(), seed, id, steps, &mu, writes, &reads); err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(reads) == 0 || len(writes) == 0 {
		t.Fatalf("degenerate run: %d reads, %d writes", len(reads), len(writes))
	}

	// Oracle replay: one single-node materialization, the committed
	// deltas re-applied single-threaded in sequence order.
	epochs, maxSeq := replayOracle(t, negProgram, input, writes)

	// Every routed read must be byte-identical to the oracle's pure
	// function of the epoch it echoed.
	for i, r := range reads {
		ep, ok := epochs[r.epoch]
		if !ok {
			t.Fatalf("read %d pinned unknown epoch %d", i, r.epoch)
		}
		want, err := serve.ReadResponse(ep, r.req).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != r.raw {
			t.Fatalf("read %d (%s %s at epoch %d) diverges from oracle:\nrouter: %s\noracle: %s",
				i, r.req.Op, r.req.Rel, r.epoch, r.raw, want)
		}
	}

	// Every shard converged to the oracle end state, byte for byte.
	c.Quiesce()
	finalOracle, err := serve.ReadResponse(epochs[maxSeq], serve.Request{Op: "facts"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < c.ShardCount(); j++ {
		finalShard, err := serve.ReadResponse(c.ShardCore(j).CurrentEpoch(), serve.Request{Op: "facts"}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(finalShard) != string(finalOracle) {
			t.Fatalf("shard %d final state diverges:\nshard:  %s\noracle: %s", j, finalShard, finalOracle)
		}
	}
}

// replayOracle replays the committed writes (keyed by dense sequence
// number) on a fresh single-node materialization and returns every
// epoch by sequence number, plus the final sequence number.
func replayOracle(t testing.TB, program, input string, writes map[int]serve.Request) (map[int]*incr.Epoch, int) {
	t.Helper()
	inst, err := fact.ParseInstance(input)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := incr.New(datalog.MustParseProgram(program), inst, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	epochs := map[int]*incr.Epoch{oracle.Seq(): oracle.Epoch()}
	maxSeq := oracle.Seq()
	for s := range writes {
		if s > maxSeq {
			maxSeq = s
		}
	}
	for s := oracle.Seq() + 1; s <= maxSeq; s++ {
		req, ok := writes[s]
		if !ok {
			t.Fatalf("sequence numbers not dense: no recorded write for seq %d", s)
		}
		var d incr.Delta
		switch req.Op {
		case "insert":
			d.Insert, err = fact.ParseFacts(req.Facts)
		case "retract":
			d.Retract, err = fact.ParseFacts(req.Facts)
		default:
			t.Fatalf("unexpected write op %q at seq %d", req.Op, s)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Apply(d); err != nil {
			t.Fatalf("oracle apply seq %d: %v", s, err)
		}
		if oracle.Seq() != s {
			t.Fatalf("oracle seq %d after applying write recorded at seq %d", oracle.Seq(), s)
		}
		epochs[s] = oracle.Epoch()
	}
	return epochs, maxSeq
}

// detClient runs one seeded client: serial request/response over its
// own TCP connection to the router (concurrency comes from the other
// clients), toggling edges in its private d<id>n* namespace and
// recording every write's committed seq and every read's raw line.
func detClient(addr string, seed int64, id, steps int, mu *sync.Mutex, writes map[int]serve.Request, reads *[]detRead) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	present := make(map[[2]int]bool)
	const nodes = 4

	roundTrip := func(req serve.Request) (serve.Response, string, error) {
		b, err := json.Marshal(req)
		if err != nil {
			return serve.Response{}, "", err
		}
		if _, err := conn.Write(append(b, '\n')); err != nil {
			return serve.Response{}, "", err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return serve.Response{}, "", err
		}
		line = line[:len(line)-1]
		var resp serve.Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			return serve.Response{}, "", fmt.Errorf("bad response %q: %w", line, err)
		}
		return resp, line, nil
	}

	for step := 0; step < steps; step++ {
		if rng.Float64() < 0.4 {
			// Toggle a random edge in this client's namespace: always an
			// effective base change, so the committed seq is unique.
			e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
			op := "insert"
			if present[e] {
				op = "retract"
			}
			present[e] = !present[e]
			req := serve.Request{Op: op, Facts: []string{fmt.Sprintf("E(d%dn%d,d%dn%d)", id, e[0], id, e[1])}}
			resp, line, err := roundTrip(req)
			if err != nil {
				return err
			}
			if !resp.OK || resp.Seq == nil {
				return fmt.Errorf("write failed: %s", line)
			}
			mu.Lock()
			if prev, dup := writes[*resp.Seq]; dup {
				mu.Unlock()
				return fmt.Errorf("two writes committed at seq %d: %+v and %+v", *resp.Seq, prev, req)
			}
			writes[*resp.Seq] = req
			mu.Unlock()
			continue
		}
		var req serve.Request
		switch rng.Intn(6) {
		case 0:
			req = serve.Request{Op: "query", Rel: "T", Epoch: true}
		case 1:
			req = serve.Request{Op: "query", Rel: "E", Epoch: true}
		case 2:
			req = serve.Request{Op: "query", Rel: "Off", Epoch: true}
		case 3:
			req = serve.Request{Op: "query", Rel: "OnLoop", Epoch: true}
		case 4:
			req = serve.Request{Op: "facts", Epoch: true}
		case 5:
			req = serve.Request{Op: "stats"}
		}
		resp, line, err := roundTrip(req)
		if err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("read failed: %s", line)
		}
		var at int
		switch {
		case resp.Epoch != nil:
			at = *resp.Epoch
		case resp.Stats != nil:
			at = resp.Stats.Seq
		default:
			return fmt.Errorf("read response carries no epoch: %s", line)
		}
		mu.Lock()
		*reads = append(*reads, detRead{req: req, epoch: at, raw: line})
		mu.Unlock()
	}
	return nil
}
