package kvsvc

// Netpoll-mode server tests: the same wire contracts as goroutine mode
// (end-to-end ops, garbage handling, read-your-writes), run over BOTH
// netpoll backends where available, plus the mode's own obligations —
// budget shedding and ping-at-budget, idle eviction through the timer
// wheel, bounded goroutines, and flat handle registries under churn and
// parked idle fleets (the per-poller handle rule).

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/ebr"
)

// netpollBackends names each backend runnable on this platform.
func netpollBackends() []struct {
	name     string
	portable bool
} {
	all := []struct {
		name     string
		portable bool
	}{{"epoll", false}, {"portable", true}}
	if runtime.GOOS != "linux" {
		return all[1:]
	}
	return all
}

// startNetpoll boots a netpoll-mode server (4 shards, detect mode).
func startNetpoll(t *testing.T, scheme string, portable bool, cfg ServerConfig) (*Server, *Store) {
	t.Helper()
	st, err := NewStore(Config{Shards: 4, Scheme: scheme, Mode: arena.ModeDetect, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Netpoll = true
	cfg.NetpollPortable = portable
	if cfg.Pollers == 0 {
		cfg.Pollers = 2
	}
	srv, err := NewServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv, st
}

// warmFleet opens n sequential conns, each issuing GETs over 64 keys
// (covering every shard), so every (poller, shard) fast-path handle
// exists afterwards; then waits for all teardowns.
func warmFleet(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		wc := dialClient(t, srv.Addr())
		wc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		var reqs []Request
		for k := uint64(0); k < 64; k++ {
			reqs = append(reqs, Request{Op: OpGet, ID: uint32(k), Key: k})
		}
		wc.send(reqs...)
		wc.recv(len(reqs))
		wc.c.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().LiveConns > 0 {
		if time.Now().After(deadline) {
			t.Fatal("warm-up conns never finished tearing down")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNetpollEndToEnd(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			srv, _ := startNetpoll(t, "hp++", b.portable, ServerConfig{AdminAddr: "127.0.0.1:0"})
			tc := dialClient(t, srv.Addr())
			tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))

			var reqs []Request
			id := uint32(0)
			for k := uint64(0); k < 32; k++ {
				reqs = append(reqs, Request{Op: OpPut, ID: id, Key: k, Val: k + 100})
				id++
			}
			for k := uint64(0); k < 32; k++ {
				reqs = append(reqs, Request{Op: OpGet, ID: id, Key: k})
				id++
			}
			for k := uint64(0); k < 32; k += 2 {
				reqs = append(reqs, Request{Op: OpDel, ID: id, Key: k})
				id++
			}
			for k := uint64(0); k < 32; k++ {
				reqs = append(reqs, Request{Op: OpGet, ID: id, Key: k})
				id++
			}
			reqs = append(reqs, Request{Op: OpPing, ID: id})
			tc.send(reqs...)
			got := tc.recv(len(reqs))

			for i := uint32(0); i < 32; i++ {
				if got[i].Status != StatusOK {
					t.Fatalf("put %d: status %d", i, got[i].Status)
				}
			}
			for i := uint32(32); i < 64; i++ {
				k := uint64(i - 32)
				if got[i].Status != StatusOK || got[i].Val != k+100 {
					t.Fatalf("get key %d: %+v", k, got[i])
				}
			}
			for i := uint32(80); i < 112; i++ {
				k := uint64(i - 80)
				want := StatusNotFound
				if k%2 == 1 {
					want = StatusOK
				}
				if got[i].Status != want {
					t.Fatalf("re-get key %d: status %d, want %d", k, got[i].Status, want)
				}
			}
			if got[id].Status != StatusOK {
				t.Fatalf("ping: %+v", got[id])
			}

			// AdminStats must report the mode, the backend, and a
			// per-poller distribution summing to the live conns.
			resp, err := http.Get("http://" + srv.AdminAddr() + "/stats?gc=1")
			if err != nil {
				t.Fatal(err)
			}
			var ast AdminStats
			err = json.NewDecoder(resp.Body).Decode(&ast)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !ast.Netpoll || ast.NetpollKind != srv.poll.Kind() {
				t.Fatalf("admin stats netpoll fields: %+v", ast)
			}
			if len(ast.PollerConns) == 0 {
				t.Fatal("no poller_conns in admin stats")
			}
			total := 0
			for _, n := range ast.PollerConns {
				total += n
			}
			if int64(total) != ast.LiveConns {
				t.Fatalf("poller_conns sum %d != live_conns %d", total, ast.LiveConns)
			}
			if ast.Goroutines <= 0 || ast.HeapInuseBytes <= 0 {
				t.Fatalf("process gauges missing: goroutines=%d heap=%d", ast.Goroutines, ast.HeapInuseBytes)
			}

			tc.c.Close()
			shutdownClean(t, srv, 5*time.Second)
			if srv.Served() == 0 {
				t.Fatal("server served nothing")
			}
		})
	}
}

func TestNetpollDropsGarbageConnection(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			srv, _ := startNetpoll(t, "ebr", b.portable, ServerConfig{})

			bad := dialClient(t, srv.Addr())
			bad.c.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02})
			bad.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := bad.br.ReadByte(); err == nil {
				t.Fatal("server kept the connection open after a garbage frame")
			}
			bad.c.Close()

			good := dialClient(t, srv.Addr())
			good.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			good.send(Request{Op: OpPut, ID: 1, Key: 5, Val: 6}, Request{Op: OpGet, ID: 2, Key: 5})
			got := good.recv(2)
			if got[2].Status != StatusOK || got[2].Val != 6 {
				t.Fatalf("get after garbage conn: %+v", got[2])
			}
			good.c.Close()
			shutdownClean(t, srv, 5*time.Second)
		})
	}
}

// TestNetpollReadYourWrites: with requests running to completion on the
// poller callback, a pipelined put;get on one key always observes the
// put.
func TestNetpollReadYourWrites(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			srv, _ := startNetpoll(t, "hp++", b.portable, ServerConfig{ConnBudget: 64})
			tc := dialClient(t, srv.Addr())
			tc.c.SetReadDeadline(time.Now().Add(30 * time.Second))

			const key = 7
			for i := uint64(0); i < 150; i++ {
				put := Request{Op: OpPut, ID: uint32(2 * i), Key: key, Val: i}
				get := Request{Op: OpGet, ID: uint32(2*i + 1), Key: key}
				tc.send(put, get)
				got := tc.recv(2)
				if got[put.ID].Status != StatusOK {
					t.Fatalf("round %d: put status %d", i, got[put.ID].Status)
				}
				if got[get.ID].Status != StatusOK || got[get.ID].Val != i {
					t.Fatalf("round %d: get = %+v, want val %d (read-your-writes)", i, got[get.ID], i)
				}
			}
			tc.send(Request{Op: OpGet, ID: 1000, Key: key})
			if got := tc.recv(1); got[1000].Status != StatusOK || got[1000].Val != 149 {
				t.Fatalf("drained-pipeline get = %+v, want val 149", got[1000])
			}
			if srv.gets.Load() != 151 {
				t.Fatalf("gets = %d, want 151", srv.gets.Load())
			}
			tc.c.Close()
			shutdownClean(t, srv, 5*time.Second)
		})
	}
}

// TestNetpollBudgetShedAndPing: the credit gate and the uncredited ping
// lane. A credit is held by a response until its bytes reach the kernel
// (OnFlushed), so a peer that stops reading ends up with every credit
// held by responses waiting in the outbound buffer. The test puts the
// conn in that state directly — filling real socket buffers with 17-byte
// responses stalls loopback TCP in both directions on some kernels — and
// checks that the next data request is shed StatusOverloaded while a
// ping is still answered, and that returned credits readmit requests.
func TestNetpollBudgetShedAndPing(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			const budget = 2
			srv, _ := startNetpoll(t, "hp++", b.portable, ServerConfig{ConnBudget: budget})
			tc := dialClient(t, srv.Addr())
			tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
			tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
			tc.recv(1)

			srv.npMu.Lock()
			var nc *npConn
			for c := range srv.npConns {
				nc = c
			}
			srv.npMu.Unlock()
			deadline := time.Now().Add(5 * time.Second)
			for nc.credits.Load() != budget { // the put's OnFlushed may trail its bytes
				if time.Now().After(deadline) {
					t.Fatalf("credits = %d, want %d after the put flushed", nc.credits.Load(), budget)
				}
				time.Sleep(time.Millisecond)
			}
			nc.credits.Store(0) // every credit held by an unflushed response

			tc.send(Request{Op: OpGet, ID: 4, Key: 1}, Request{Op: OpPing, ID: 5, Val: 42})
			got := tc.recv(2)
			if got[4].Status != StatusOverloaded {
				t.Fatalf("data request at budget: status %d, want StatusOverloaded", got[4].Status)
			}
			if got[5].Status != StatusOK || got[5].Val != 42 {
				t.Fatalf("ping at budget: %+v, want StatusOK echoing 42 (uncredited lane)", got[5])
			}
			if n := srv.Snapshot().ShedBudget; n != 1 {
				t.Fatalf("shed_budget = %d, want 1", n)
			}

			nc.credits.Store(budget) // the held responses reached the kernel
			tc.send(Request{Op: OpGet, ID: 6, Key: 1})
			if got := tc.recv(1)[6]; got.Status != StatusOK || got.Val != 11 {
				t.Fatalf("get after credits returned: %+v", got)
			}

			tc.c.Close()
			shutdownClean(t, srv, 5*time.Second)
		})
	}
}

// TestNetpollIdleEviction: the timer wheel must evict a silent conn and
// count it, and the fleet accounting must return to zero.
func TestNetpollIdleEviction(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			srv, _ := startNetpoll(t, "hp++", b.portable, ServerConfig{IdleTimeout: 200 * time.Millisecond})
			tc := dialClient(t, srv.Addr())
			tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
			tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
			tc.recv(1)
			// Go silent; the server must hang up on us.
			if _, err := tc.br.ReadByte(); err == nil {
				t.Fatal("idle conn was never evicted")
			}
			tc.c.Close()

			deadline := time.Now().Add(10 * time.Second)
			for srv.Snapshot().LiveConns > 0 {
				if time.Now().After(deadline) {
					t.Fatal("evicted conn never left the fleet accounting")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if n := srv.Snapshot().EvictedIdle; n != 1 {
				t.Fatalf("evicted_idle = %d, want 1", n)
			}
			shutdownClean(t, srv, 5*time.Second)
		})
	}
}

// TestNetpollChurnAndIdleParkStabilizesRegistry is the idle-handle
// satellite: under connection churn AND a parked idle fleet, cached
// read handles stay with the POLLERS (bounded O(pollers × shards)), so
// Registry.Len() / live handles do not grow with conns accepted or
// parked — the idle-fleet analogue of fastpath_test's churn tests.
func TestNetpollChurnAndIdleParkStabilizesRegistry(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			srv, st := startNetpoll(t, "hp++", b.portable, ServerConfig{ConnBudget: 64})
			tc := dialClient(t, srv.Addr())
			tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
			tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
			tc.recv(1)
			tc.c.Close()

			// Warm-up: poller handle sets fill lazily per (poller, shard)
			// pair, so drive GETs across every shard from enough conns to
			// land on every poller (round-robin assignment) before taking
			// the mid measurement.
			warmFleet(t, srv, 2*srv.cfg.Pollers)
			mid := st.ShardStats()[0]
			midHandles := st.LiveHandles()

			churnConns(t, srv, 30)

			// Park an idle fleet that issued reads first: their GETs ran
			// on poller handles, so parking must pin nothing.
			var parked []*testClient
			for i := 0; i < 16; i++ {
				pc := dialClient(t, srv.Addr())
				pc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
				pc.send(Request{Op: OpGet, ID: 1, Key: 1})
				pc.recv(1)
				parked = append(parked, pc)
			}
			end := st.ShardStats()[0]
			endHandles := st.LiveHandles()

			if end.HazardSlots > mid.HazardSlots {
				t.Fatalf("Registry.Len grew with conns: %d -> %d", mid.HazardSlots, end.HazardSlots)
			}
			if end.HazardSlotsInUse > mid.HazardSlotsInUse {
				t.Fatalf("hazard slots in use grew: %d -> %d", mid.HazardSlotsInUse, end.HazardSlotsInUse)
			}
			if endHandles > midHandles {
				t.Fatalf("live handles grew with conns: %d -> %d", midHandles, endHandles)
			}
			if srv.gets.Load() == 0 {
				t.Fatal("churn traffic never ran a get")
			}
			for _, pc := range parked {
				pc.c.Close()
			}
			shutdownClean(t, srv, 5*time.Second)
		})
	}
}

// TestNetpollChurnStabilizesEBRRecords: epoch-scheme twin on the poller
// path — guard records recycle instead of accumulating per conn.
func TestNetpollChurnStabilizesEBRRecords(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			st, err := NewStore(Config{Shards: 1, Scheme: "ebr", Mode: arena.ModeDetect, Buckets: 32})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(st, ServerConfig{
				Addr:            "127.0.0.1:0",
				Netpoll:         true,
				NetpollPortable: b.portable,
				Pollers:         2,
				ReadHandleCache: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve()

			tc := dialClient(t, srv.Addr())
			tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
			tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
			tc.recv(1)
			tc.c.Close()

			dom := st.shards[0].dom.Guards.(*ebr.Domain)
			churnConns(t, srv, 3)
			midTotal, _ := dom.Records()
			churnConns(t, srv, 30)
			endTotal, _ := dom.Records()

			if endTotal > midTotal {
				t.Fatalf("EBR record list grew with accepted conns: %d -> %d", midTotal, endTotal)
			}
			shutdownClean(t, srv, 5*time.Second)
		})
	}
}

// TestNetpollShutdownForcesStragglers: drain must not hang on a conn
// that never closes; the force-close path joins the pollers cleanly.
func TestNetpollShutdownForcesStragglers(t *testing.T) {
	for _, b := range netpollBackends() {
		t.Run(b.name, func(t *testing.T) {
			srv, _ := startNetpoll(t, "hp++", b.portable, ServerConfig{})
			straggler := dialClient(t, srv.Addr())
			straggler.c.SetReadDeadline(time.Now().Add(10 * time.Second))
			straggler.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 1})
			straggler.recv(1)

			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			start := time.Now()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if time.Since(start) > 3*time.Second {
				t.Fatal("shutdown hung past the drain deadline")
			}
			straggler.c.Close()
		})
	}
}
