package serve

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
)

// TestDeterminismUnderConcurrency is the determinism property test:
// N concurrent clients hammer one TCP server with seeded interleaved
// reads and writes; afterwards a single-threaded oracle replays the
// committed delta sequence and every read response the server
// produced is byte-compared against the pure readResponse of the
// oracle's epoch with the same sequence number.
//
// The key structural facts that make the comparison exact:
//   - each client toggles edges in its own namespace, tracked locally,
//     so every write is an effective base change — the apply sequence
//     numbers come out dense and identify the total commit order;
//   - reads opt in to the epoch echo ("epoch":true for query/facts;
//     stats carries its seq natively), pinning each response to the
//     epoch that served it;
//   - a query response is a pure function of (epoch, request), so the
//     oracle epoch's ReadResponse must reproduce the server's wire line
//     byte for byte.
func TestDeterminismUnderConcurrency(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDeterminism(t, seed)
		})
	}
}

// detRead is one recorded read: the request, the epoch that answered
// it, and the exact wire line the server sent.
type detRead struct {
	req   Request
	epoch int
	raw   string
}

func runDeterminism(t *testing.T, seed int64) {
	const (
		clients = 6
		steps   = 50
	)
	// A static loop so OnLoop and Off are non-empty from the start.
	input := "E(h0,h1)\nE(h1,h2)\nE(h2,h0)\n"

	c := newTestCore(t, input, Options{MaxBatch: 8, Pipeline: 16})
	srv, err := NewTCPServerFor(c, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Start()

	var (
		mu     sync.Mutex
		writes = make(map[int]Request) // seq -> the write that committed it
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

	// Oracle replay: the same program and input, the committed deltas
	// re-applied single-threaded in sequence order.
	inst, err := fact.ParseInstance(input)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := incr.New(datalog.MustParseProgram(testProgram), inst, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	epochs := map[int]*incr.Epoch{oracle.Seq(): oracle.Epoch()}
	maxSeq := 0
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

	// Every read the concurrent server answered must be byte-identical
	// to the oracle's pure function of the same epoch.
	for i, r := range reads {
		ep, ok := epochs[r.epoch]
		if !ok {
			t.Fatalf("read %d pinned unknown epoch %d", i, r.epoch)
		}
		want, err := ReadResponse(ep, r.req).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != r.raw {
			t.Fatalf("read %d (%s %s at epoch %d) diverges from oracle:\nserver: %s\noracle: %s",
				i, r.req.Op, r.req.Rel, r.epoch, r.raw, want)
		}
	}
	if len(reads) == 0 || len(writes) == 0 {
		t.Fatalf("degenerate run: %d reads, %d writes", len(reads), len(writes))
	}

	// The served end state equals the oracle end state, and the
	// materialization audits clean after all the concurrency.
	finalServer, err := ReadResponse(c.CurrentEpoch(), Request{Op: "facts"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	finalOracle, err := ReadResponse(epochs[maxSeq], Request{Op: "facts"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(finalServer) != string(finalOracle) {
		t.Fatalf("final states diverge:\nserver: %s\noracle: %s", finalServer, finalOracle)
	}
	if err := c.m.Verify(); err != nil {
		t.Fatalf("verify after concurrent run: %v", err)
	}
}

// detClient runs one seeded client: serial request/response over its
// own TCP connection (concurrency comes from the other clients),
// toggling edges in its private d<id>n* namespace and recording every
// write's committed seq and every read's raw response line.
func detClient(addr string, seed int64, id, steps int, mu *sync.Mutex, writes map[int]Request, reads *[]detRead) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	present := make(map[[2]int]bool)
	const nodes = 4

	roundTrip := func(req Request) (Response, string, error) {
		b, err := json.Marshal(req)
		if err != nil {
			return Response{}, "", err
		}
		if _, err := conn.Write(append(b, '\n')); err != nil {
			return Response{}, "", err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return Response{}, "", err
		}
		line = line[:len(line)-1]
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			return Response{}, "", fmt.Errorf("bad response %q: %w", line, err)
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
			req := Request{Op: op, Facts: []string{fmt.Sprintf("E(d%dn%d,d%dn%d)", id, e[0], id, e[1])}}
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
		var req Request
		switch rng.Intn(6) {
		case 0:
			req = Request{Op: "query", Rel: "T", Epoch: true}
		case 1:
			req = Request{Op: "query", Rel: "E", Epoch: true}
		case 2:
			req = Request{Op: "query", Rel: "Off", Epoch: true}
		case 3:
			req = Request{Op: "query", Rel: "OnLoop", Epoch: true}
		case 4:
			req = Request{Op: "facts", Epoch: true}
		case 5:
			req = Request{Op: "stats"}
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
