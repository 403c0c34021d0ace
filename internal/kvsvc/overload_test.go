package kvsvc

// Overload-protection and connection-hygiene tests: the misbehaving
// client matrix (idle, slow-reader, accept flood) and the drain-ordering
// regression. The shared adversary is a parked request — the deref hook
// parks the goroutine executing it mid-traversal exactly like the stress
// harness's stalled reader, which makes "this connection is stuck"
// deterministic instead of a timing race.

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
)

// startTuned boots a 1-shard hp++ detect-mode server with the given
// overload knobs and its Serve loop running.
func startTuned(t *testing.T, cfg ServerConfig) (*Server, *Store) {
	t.Helper()
	st, err := NewStore(Config{Shards: 1, Scheme: "hp++", Mode: arena.ModeDetect, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv, err := NewServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv, st
}

// parkFirstDeref arms a one-shot trap on every pool of st: the next
// dereferencing goroutine (a connection goroutine or poller mid-request)
// parks until release is called. release is idempotent.
func parkFirstDeref(st *Store) (parked <-chan struct{}, release func()) {
	p := make(chan struct{})
	r := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	for _, pool := range st.Pools() {
		pool.SetDerefHook(func(uint64) {
			if armed.CompareAndSwap(true, false) {
				close(p)
				<-r
			}
		})
	}
	var once sync.Once
	return p, func() { once.Do(func() { close(r) }) }
}

func clearDerefHooks(st *Store) {
	for _, pool := range st.Pools() {
		pool.SetDerefHook(nil)
	}
}

func shutdownClean(t *testing.T, srv *Server, within time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > within {
		t.Fatalf("shutdown took %v, deadline was %v", elapsed, within)
	}
}

// TestShutdownDrainsParkedConn pins the drain ordering for a connection
// whose peer vanished while its goroutine was parked mid-request with a
// flood of requests still unread: once released, the goroutine answers
// into a dead socket, fails the write and exits, so Shutdown stays
// bounded.
func TestShutdownDrainsParkedConn(t *testing.T) {
	srv, st := startTuned(t, ServerConfig{})
	tc := dialClient(t, srv.Addr())
	tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
	tc.recv(1)

	parked, release := parkFirstDeref(st)
	defer release()
	tc.send(Request{Op: OpGet, ID: 2, Key: 1})
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("connection never parked")
	}

	// Flood, then vanish without reading a single response.
	var reqs []Request
	for i := uint32(3); i < 33; i++ {
		reqs = append(reqs, Request{Op: OpGet, ID: i, Key: uint64(i)})
	}
	tc.send(reqs...)
	tc.c.Close()

	release()
	shutdownClean(t, srv, 5*time.Second)
}

// TestShutdownReportsAdminServeError: an admin listener that dies while
// serving must surface from Shutdown instead of vanishing into a
// fire-and-forget goroutine.
func TestShutdownReportsAdminServeError(t *testing.T) {
	srv := startServer(t, "ebr")
	srv.adminLn.Close() // yank the listener out from under the admin server

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil after the admin listener failed")
	}
	if !strings.Contains(err.Error(), "admin listener") {
		t.Fatalf("Shutdown error does not name the admin listener: %v", err)
	}
}

// TestIdleClientEvicted: a client that connects and never writes is cut
// loose by the idle deadline, so it cannot hold connWG (and Shutdown)
// hostage to the force-close path.
func TestIdleClientEvicted(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{IdleTimeout: 100 * time.Millisecond})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server never evicted the idle connection (read err = %v)", err)
	}

	// The eviction already drained connWG: Shutdown must finish fast
	// without resorting to ctx-expiry force-closes.
	start := time.Now()
	shutdownClean(t, srv, 5*time.Second)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown needed %v despite the idle client being evicted", elapsed)
	}
	if n := srv.Snapshot().EvictedIdle; n < 1 {
		t.Fatalf("evicted_idle = %d, want >= 1", n)
	}
}

// TestSlowReaderEvictionKeepsShardProgressing is the acceptance
// regression: a connection that writes requests but never reads its
// responses cannot stall its shard. Its goroutine blocks in Write, alone;
// concurrent traffic from a healthy connection on the same (only) shard
// keeps completing while the slow client is eventually evicted by the
// write deadline, and the whole run stays free of detect-mode
// violations.
func TestSlowReaderEvictionKeepsShardProgressing(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{
		WriteTimeout: 250 * time.Millisecond,
		// A small capped send buffer is what makes the eviction prompt:
		// responses are 17 bytes, so with the autotuned default the
		// kernel absorbs megabytes of them before a flush ever stalls
		// past the deadline.
		ConnWriteBuffer: 16 << 10,
	})

	// The slow client: shrink its receive window so the server's
	// response stream fills the socket buffers quickly, then write
	// requests forever and never read. (Not too small: a window under
	// one loopback segment degenerates into a TCP retransmission storm
	// that freezes both directions instead of blocking the writer.)
	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if tcp, ok := slow.(*net.TCPConn); ok {
		tcp.SetReadBuffer(16 << 10)
	}
	var slowWG sync.WaitGroup
	slowWG.Add(1)
	go func() {
		defer slowWG.Done()
		// Write until eviction closes the socket under us (the 30s
		// deadline is only a backstop against a hung test). The flood
		// must outlive the buffer-fill phase: responses accumulate in
		// the never-read socket until the server's writer blocks and
		// its deadline fires.
		slow.SetWriteDeadline(time.Now().Add(30 * time.Second))
		var buf []byte
		for i := uint32(0); ; i++ {
			buf = AppendRequest(buf[:0], Request{Op: OpPut, ID: i, Key: uint64(i % 512), Val: 7})
			if _, err := slow.Write(buf); err != nil {
				return // evicted: exactly what the test wants
			}
		}
	}()

	// The healthy client shares the shard. Every op must complete within
	// the conn-wide deadline; overload sheds would be retried, which is
	// the documented client contract.
	healthy := dialClient(t, srv.Addr())
	healthy.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	for i := uint32(0); i < 100; i++ {
		for {
			healthy.send(Request{Op: OpPut, ID: i, Key: uint64(i), Val: uint64(i) + 100})
			resp := healthy.recv(1)[i]
			if resp.Status == StatusOverloaded {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if resp.Status != StatusOK {
				t.Fatalf("healthy put %d: status %d", i, resp.Status)
			}
			break
		}
	}
	if srv.Served() < 100 {
		t.Fatalf("served %d ops, want >= 100", srv.Served())
	}

	// The slow client must be evicted (write deadline), which also ends
	// its connection goroutine.
	deadline := time.Now().Add(15 * time.Second)
	for srv.Snapshot().EvictedSlow == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow reader was never evicted by the write deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	slowWG.Wait()

	healthy.c.Close()
	shutdownClean(t, srv, 10*time.Second) // nil error ⇒ zero arena violations
}

// TestMaxConnsShedsAtAccept: connections past the cap are closed at
// accept time; capacity freed by a disconnect is reusable.
func TestMaxConnsShedsAtAccept(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{MaxConns: 2})

	c1 := dialClient(t, srv.Addr())
	c2 := dialClient(t, srv.Addr())
	c1.send(Request{Op: OpPing, ID: 1})
	c1.recv(1)
	c2.send(Request{Op: OpPing, ID: 1})
	c2.recv(1)

	third, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	third.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := third.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("third connection past MaxConns was not shed (read err = %v)", err)
	}
	third.Close()
	if n := srv.Snapshot().ShedConns; n < 1 {
		t.Fatalf("shed_conns = %d, want >= 1", n)
	}

	// Freeing a slot readmits new connections.
	c1.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().LiveConns >= 2 {
		if time.Now().After(deadline) {
			t.Fatal("closed connection never released its slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c4 := dialClient(t, srv.Addr())
	c4.send(Request{Op: OpPing, ID: 9})
	if got := c4.recv(1); got[9].Status != StatusOK {
		t.Fatalf("ping after slot reuse: %+v", got[9])
	}

	c2.c.Close()
	c4.c.Close()
	shutdownClean(t, srv, 5*time.Second)
}
