package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// TestSoakChurn is the race soak: deliberately small queue, batch and
// pipeline bounds, then three kinds of hostile client at once —
//
//   - churners that connect, fire a burst of mixed (partly malformed)
//     requests, read only a prefix of the responses, and slam the
//     connection shut mid-batch;
//   - slow readers that pipeline a burst and then drain with delays,
//     exercising the backpressure path with the ordering buffer full;
//   - a snapshotter racing the commit loop;
//
// while a steady writer keeps group commits flowing. The assertions:
// the server survives (a fresh session still answers), the
// materialization is uncorrupted, and its end state audits clean
// against full recomputation. Run under -race in scripts/check.sh,
// this is also the data-race battery for the whole serving core.
func TestSoakChurn(t *testing.T) {
	duration := 800 * time.Millisecond
	if testing.Short() {
		duration = 200 * time.Millisecond
	}

	dir := t.TempDir()
	c := newTestCore(t, "E(h0,h1)\nE(h1,h0)\n", Options{
		WriteQueue:  8,
		MaxBatch:    4,
		Pipeline:    4,
		SnapshotDir: dir,
	})
	srv, err := NewTCPServerFor(c, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	stop := make(chan struct{})
	time.AfterFunc(duration, func() { close(stop) })
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup

	// Steady writer: effective toggles so commits never dry up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		present := make(map[int]bool)
		for i := 0; !stopped(); i++ {
			e := i % 16
			op := "insert"
			if present[e] {
				op = "retract"
			}
			present[e] = !present[e]
			line := fmt.Sprintf(`{"op":"%s","facts":["E(w%d,w%d)"]}`+"\n", op, e, e+1)
			if _, err := conn.Write([]byte(line)); err != nil {
				return
			}
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()

	// Snapshotter racing the commit loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stopped(); i++ {
			req, _ := json.Marshal(Request{Op: "snapshot", Path: fmt.Sprintf("soak-%d.snap", i%4)})
			if resp := c.HandleLine(req); !resp.OK {
				t.Errorf("snapshot during soak: %+v", resp)
				return
			}
		}
	}()

	// Churners: abrupt disconnects mid-batch, garbage in the stream.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 42))
			for !stopped() {
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					return
				}
				burst := 2 + rng.Intn(10)
				for i := 0; i < burst; i++ {
					var line string
					switch rng.Intn(6) {
					case 0:
						line = `{"op":"query","rel":"T","epoch":true}`
					case 1:
						line = fmt.Sprintf(`{"op":"insert","facts":["E(c%dx%d,c%dy%d)"]}`, g, rng.Intn(8), g, rng.Intn(8))
					case 2:
						line = `{"op":"stats"}`
					case 3:
						line = `{garbage` + string(rune('a'+rng.Intn(26)))
					case 4:
						line = `{"op":"retract","facts":["E(h0,h1)"]}`
					case 5:
						line = `{"op":"insert","facts":["E(h0,h1)"]}`
					}
					if _, err := conn.Write([]byte(line + "\n")); err != nil {
						break
					}
				}
				// Read only a prefix, then disconnect with responses (and
				// possibly queued writes) still in flight.
				br := bufio.NewReader(conn)
				for i := rng.Intn(burst + 1); i > 0; i-- {
					conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
					if _, err := br.ReadString('\n'); err != nil {
						break
					}
				}
				conn.Close()
			}
		}(g)
	}

	// Slow readers: pipeline a burst, then drain with delays so the
	// ordering buffer stays full and the session reader blocks.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stopped() {
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					return
				}
				const burst = 12
				for i := 0; i < burst; i++ {
					if _, err := conn.Write([]byte(`{"op":"facts","epoch":true}` + "\n")); err != nil {
						break
					}
				}
				br := bufio.NewReader(conn)
				ok := true
				for i := 0; i < burst && ok; i++ {
					time.Sleep(time.Millisecond)
					conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
					line, err := br.ReadString('\n')
					if err != nil {
						ok = false
						break
					}
					var r Response
					if err := json.Unmarshal([]byte(line), &r); err != nil || !r.OK {
						t.Errorf("slow reader got bad response: %q", line)
						ok = false
					}
				}
				conn.Close()
			}
		}(g)
	}

	wg.Wait()
	srv.Close()

	// The server survives: a fresh synchronous session still answers,
	// and the state audits clean.
	if resp := c.HandleLine([]byte(`{"op":"ping"}`)); !resp.OK {
		t.Fatalf("ping after soak: %+v", resp)
	}
	if resp := c.HandleLine([]byte(`{"op":"query","rel":"T"}`)); !resp.OK {
		t.Fatalf("query after soak: %+v", resp)
	}
	if err := c.m.Err(); err != nil {
		t.Fatalf("materialization corrupt after soak: %v", err)
	}
	if err := c.m.Verify(); err != nil {
		t.Fatalf("verify after soak: %v", err)
	}
}
