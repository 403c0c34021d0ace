package stress

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/kvsvc"
)

// startServer boots a 1-shard hp++ detect-mode server tuned so the
// injectors trip its defenses quickly: short idle and write deadlines
// and a small capped send buffer.
func startServer(t *testing.T) *kvsvc.Server {
	t.Helper()
	st, err := kvsvc.NewStore(kvsvc.Config{Shards: 1, Scheme: "hp++", Mode: arena.ModeDetect, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvsvc.NewServer(st, kvsvc.ServerConfig{
		Addr:            "127.0.0.1:0",
		IdleTimeout:     300 * time.Millisecond,
		WriteTimeout:    250 * time.Millisecond,
		ConnWriteBuffer: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv
}

// doOp runs one request/response round trip on c.
func doOp(t *testing.T, c net.Conn, br *bufio.Reader, req kvsvc.Request) kvsvc.Response {
	t.Helper()
	if _, err := c.Write(kvsvc.AppendRequest(nil, req)); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	frame, err := kvsvc.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("healthy read: %v", err)
	}
	resp, err := kvsvc.DecodeResponse(frame)
	if err != nil {
		t.Fatalf("healthy decode: %v", err)
	}
	return resp
}

func shutdownClean(t *testing.T, srv *kvsvc.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStalledReaderEvictedWhileHealthyProgress: the flagship injector.
// A flooding never-reading client is evicted by the write deadline while
// a healthy connection on the same single shard keeps completing ops —
// the stalled client blocks only its own connection goroutine.
func TestStalledReaderEvictedWhileHealthyProgress(t *testing.T) {
	srv := startServer(t)
	stop := make(chan struct{})
	defer close(stop)

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := StalledReader(srv.Addr(), stop)
		done <- result{n, err}
	}()

	// Healthy traffic must keep completing the whole time; a shed would
	// be retried, which is the documented client contract.
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	c.SetDeadline(time.Now().Add(30 * time.Second))
	deadline := time.Now().Add(15 * time.Second)
	for i := uint32(0); i < 50; i++ {
		for {
			resp := doOp(t, c, br, kvsvc.Request{Op: kvsvc.OpPut, ID: i, Key: uint64(i), Val: 1})
			if resp.Status == kvsvc.StatusOverloaded {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if resp.Status != kvsvc.StatusOK {
				t.Fatalf("healthy put %d: status %d", i, resp.Status)
			}
			break
		}
	}
	if srv.Served() < 50 {
		t.Fatalf("served %d, want >= 50", srv.Served())
	}

	// The injector must be evicted by the write deadline.
	for srv.Snapshot().EvictedSlow == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled reader was never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	res := <-done
	if res.err == nil {
		t.Fatal("stalled reader returned without a socket error despite eviction")
	}
	t.Logf("stalled reader evicted after %d requests: %v", res.n, res.err)
	shutdownClean(t, srv)
}

// TestSlowlorisWriterEvicted: a byte-at-a-time frame cannot hold a
// connection open past the idle timeout, because the read deadline
// covers the whole frame.
func TestSlowlorisWriterEvicted(t *testing.T) {
	srv := startServer(t)
	stop := make(chan struct{})
	defer close(stop)

	n, err := SlowlorisWriter(srv.Addr(), 50*time.Millisecond, stop)
	if err == nil {
		t.Fatal("slowloris trickle survived the idle deadline")
	}
	// 300ms idle timeout at 50ms/byte: the eviction lands mid-frame,
	// well before the 25-byte frame completes.
	if n >= 25 {
		t.Fatalf("wrote a whole frame (%d bytes) before eviction", n)
	}
	snap := srv.Snapshot()
	if snap.EvictedIdle == 0 {
		t.Fatalf("eviction not attributed to the idle deadline: %+v", snap)
	}
	shutdownClean(t, srv)
}

// TestMidFrameDisconnect: a torn stream tears down only its own
// connection; the shard keeps serving and the drain stays clean.
func TestMidFrameDisconnect(t *testing.T) {
	srv := startServer(t)
	if _, err := MidFrameDisconnect(srv.Addr()); err != nil {
		t.Fatalf("mid-frame disconnect write: %v", err)
	}

	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if resp := doOp(t, c, br, kvsvc.Request{Op: kvsvc.OpPut, ID: 1, Key: 1, Val: 2}); resp.Status != kvsvc.StatusOK {
		t.Fatalf("put after torn stream: status %d", resp.Status)
	}
	if resp := doOp(t, c, br, kvsvc.Request{Op: kvsvc.OpGet, ID: 2, Key: 1}); resp.Status != kvsvc.StatusOK || resp.Val != 2 {
		t.Fatalf("get after torn stream: %+v", resp)
	}
	shutdownClean(t, srv)
}
