package kvsvc

// Run-to-completion serving tests: a connection parked mid-request must
// not hold up other connections, one connection's pipelined requests
// must apply in the order it sent them on every connection layer, and —
// the lifecycle half — connection churn must not grow the hazard
// registries or epoch record lists with connections ever accepted.

import (
	"runtime"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/ebr"
)

// TestFastPathGetBypassesStalledWorker: with one connection's goroutine
// parked mid-mutation, a *different* connection's GETs are still served.
// Each connection executes its own requests, so a stalled one holds up
// nobody else — the wait-free-read property the read fast path was
// introduced for, now true of every request.
func TestFastPathGetBypassesStalledWorker(t *testing.T) {
	srv, st := startTuned(t, ServerConfig{})

	writer := dialClient(t, srv.Addr())
	writer.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
	writer.recv(1)

	parked, release := parkFirstDeref(st)
	defer release()
	writer.send(Request{Op: OpPut, ID: 2, Key: 2, Val: 22}) // parks the writer's goroutine mid-insert
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never parked on the deref hook")
	}

	reader := dialClient(t, srv.Addr())
	reader.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	reader.send(Request{Op: OpGet, ID: 10, Key: 1}, Request{Op: OpGet, ID: 11, Key: 999})
	got := reader.recv(2)
	if got[10].Status != StatusOK || got[10].Val != 11 {
		t.Fatalf("get while another conn is parked: %+v", got[10])
	}
	if got[11].Status != StatusNotFound {
		t.Fatalf("miss while another conn is parked: %+v", got[11])
	}
	if srv.gets.Load() < 2 {
		t.Fatalf("gets = %d, want >= 2", srv.gets.Load())
	}

	release()
	if got := writer.recv(1); got[2].Status != StatusOK {
		t.Fatalf("parked put resolved wrong: %+v", got[2])
	}

	clearDerefHooks(st)
	reader.c.Close()
	writer.c.Close()
	shutdownClean(t, srv, 5*time.Second)
}

// TestFastPathReadYourWrites: a pipelined put;get on one key must always
// observe the put, and a lone get after the pipeline drained must see
// the last write.
func TestFastPathReadYourWrites(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{})
	tc := dialClient(t, srv.Addr())
	tc.c.SetReadDeadline(time.Now().Add(30 * time.Second))

	const key = 7
	for i := uint64(0); i < 300; i++ {
		put := Request{Op: OpPut, ID: uint32(2 * i), Key: key, Val: i}
		get := Request{Op: OpGet, ID: uint32(2*i + 1), Key: key}
		tc.send(put, get) // one write: both frames in one read batch
		got := tc.recv(2)
		if got[put.ID].Status != StatusOK {
			t.Fatalf("round %d: put status %d", i, got[put.ID].Status)
		}
		if got[get.ID].Status != StatusOK || got[get.ID].Val != i {
			t.Fatalf("round %d: get = %+v, want val %d (read-your-writes)", i, got[get.ID], i)
		}
	}
	tc.send(Request{Op: OpGet, ID: 1000, Key: key})
	if got := tc.recv(1); got[1000].Status != StatusOK || got[1000].Val != 299 {
		t.Fatalf("drained-pipeline get = %+v, want val 299", got[1000])
	}
	if srv.gets.Load() != 301 {
		t.Fatalf("gets = %d, want 301", srv.gets.Load())
	}

	tc.c.Close()
	shutdownClean(t, srv, 5*time.Second)
}

// TestPipelinedMutationsApplyInOrder pins same-connection ordering on
// every connection layer: pipeline PUT k=1; PUT k=2; GET k with the
// first PUT parked mid-insert. Nothing may overtake it, so once it is
// released the GET and a later GET both read 2; a second executor for
// the connection would let the second PUT run first and the parked one
// land last. The same run checks that Shutdown leaves no goroutine
// behind.
func TestPipelinedMutationsApplyInOrder(t *testing.T) {
	layers := []struct {
		name     string
		netpoll  bool
		portable bool
	}{{name: "goroutine"}}
	for _, b := range netpollBackends() {
		layers = append(layers, struct {
			name     string
			netpoll  bool
			portable bool
		}{"netpoll-" + b.name, true, b.portable})
	}
	for _, l := range layers {
		t.Run(l.name, func(t *testing.T) {
			preServer := runtime.NumGoroutine()
			srv, st := startTuned(t, ServerConfig{Netpoll: l.netpoll, NetpollPortable: l.portable, Pollers: 1})
			tc := dialClient(t, srv.Addr())
			tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
			const key = 5

			parked, release := parkFirstDeref(st)
			defer release()
			tc.send(
				Request{Op: OpPut, ID: 1, Key: key, Val: 1},
				Request{Op: OpPut, ID: 2, Key: key, Val: 2},
				Request{Op: OpGet, ID: 3, Key: key},
			)
			select {
			case <-parked:
			case <-time.After(2 * time.Second):
				t.Fatal("first put never parked on the deref hook")
			}
			time.Sleep(20 * time.Millisecond) // give any overtaking request the chance to run
			release()

			got := tc.recv(3)
			for _, id := range []uint32{1, 2} {
				if got[id].Status != StatusOK {
					t.Fatalf("put %d: status %d", id, got[id].Status)
				}
			}
			if got[3].Status != StatusOK || got[3].Val != 2 {
				t.Fatalf("pipelined get = %+v, want val 2", got[3])
			}
			tc.send(Request{Op: OpGet, ID: 4, Key: key})
			if got := tc.recv(1)[4]; got.Status != StatusOK || got.Val != 2 {
				t.Fatalf("final get = %+v, want val 2", got)
			}

			clearDerefHooks(st)
			tc.c.Close()
			shutdownClean(t, srv, 5*time.Second)

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > preServer+2 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before server, %d after shutdown", preServer, runtime.NumGoroutine())
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// churnConns opens n strictly sequential connections, each issuing two
// GETs. It waits for each teardown before the next dial, so peak
// concurrency is one connection: the churn tests' precondition. Without
// the wait the next connection can borrow handles before the previous
// teardown has returned its own, and the registry grows for a reason
// other than a leak.
func churnConns(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tc := dialClient(t, srv.Addr())
		tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		tc.send(Request{Op: OpGet, ID: 1, Key: 1}, Request{Op: OpGet, ID: 2, Key: uint64(i) + 100})
		tc.recv(2)
		tc.c.Close()
		deadline := time.Now().Add(10 * time.Second)
		for srv.Snapshot().LiveConns > 0 {
			if time.Now().After(deadline) {
				t.Fatal("connections never finished tearing down")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestConnChurnStabilizesRegistry is the handle-lifecycle acceptance
// test: the hazard registry must stabilize at peak concurrency instead of
// growing with connections ever accepted. Before handles had a release
// path, every connection's handle stayed in the shard's live
// set forever and its hazard slots inflated Registry.Len() — and with it
// every ScanSet built from it — linearly in accepted connections.
func TestConnChurnStabilizesRegistry(t *testing.T) {
	for _, cache := range []struct {
		name string
		size int
	}{
		{"pooled", 4},    // handles handed off between connections
		{"unpooled", -1}, // every teardown releases to the store
	} {
		t.Run(cache.name, func(t *testing.T) {
			srv, st := startTuned(t, ServerConfig{ReadHandleCache: cache.size})
			tc := dialClient(t, srv.Addr())
			tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
			tc.recv(1)
			tc.c.Close()

			churnConns(t, srv, 3) // warmup: create/pool the steady-state handles
			mid := st.ShardStats()[0]
			midHandles := st.LiveHandles()

			churnConns(t, srv, 30)
			end := st.ShardStats()[0]
			endHandles := st.LiveHandles()

			if end.HazardSlots > mid.HazardSlots {
				t.Fatalf("Registry.Len grew with accepted connections: %d -> %d (cache=%s)",
					mid.HazardSlots, end.HazardSlots, cache.name)
			}
			if end.HazardSlotsInUse > mid.HazardSlotsInUse {
				t.Fatalf("hazard slots in use grew: %d -> %d", mid.HazardSlotsInUse, end.HazardSlotsInUse)
			}
			if endHandles > midHandles {
				t.Fatalf("live handles grew with accepted connections: %d -> %d", midHandles, endHandles)
			}
			if srv.gets.Load() == 0 {
				t.Fatal("churn traffic never ran a get")
			}

			shutdownClean(t, srv, 5*time.Second)
		})
	}
}

// TestConnChurnStabilizesEBRRecords is the epoch-scheme twin: guard
// records (the H of the adaptive collect threshold) must recycle through
// Guard.Finish instead of accumulating one per connection ever accepted.
func TestConnChurnStabilizesEBRRecords(t *testing.T) {
	st, err := NewStore(Config{Shards: 1, Scheme: "ebr", Mode: arena.ModeDetect, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, ServerConfig{
		Addr:            "127.0.0.1:0",
		ReadHandleCache: -1, // force a real release every teardown
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	tc := dialClient(t, srv.Addr())
	tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
	tc.recv(1)
	tc.c.Close()

	dom := st.shards[0].dom.(*ebr.Domain)
	churnConns(t, srv, 3)
	midTotal, _ := dom.Records()
	churnConns(t, srv, 30)
	endTotal, endLive := dom.Records()

	if endTotal > midTotal {
		t.Fatalf("EBR record list grew with accepted connections: %d -> %d", midTotal, endTotal)
	}
	// Steady state: live handles + agitator guard, nothing from churn.
	if want := st.LiveHandles() + 1; endLive > want {
		t.Fatalf("live records = %d, want <= %d (live handles + agitator)", endLive, want)
	}

	shutdownClean(t, srv, 5*time.Second)
}
