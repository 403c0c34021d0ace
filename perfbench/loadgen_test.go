package main

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/kvsvc"
)

// startTestServer runs an in-process kvsvc server on a small store.
func startTestServer(t *testing.T) string {
	t.Helper()
	st, err := kvsvc.NewStore(kvsvc.Config{Shards: 2, Mode: arena.ModeReuse})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvsvc.NewServer(st, kvsvc.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Shutdown(t.Context())
		<-done
	})
	return srv.Addr()
}

// runStalled drives one connection at 20k ops/s for 300 ms, stalling
// the generator for stall after its 2000th request (at 100 ms).
func runStalled(t *testing.T, addr string, stall time.Duration) *phase {
	t.Helper()
	runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 3))
	sp := spec{keys: 1 << 10, preload: 0, getPct: 50, putPct: 25}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ks := newKeyspace(1)
	d := newConnGen(0, c, newModel(sp, ks, 0), newOpStream(sp, 1, 0, nil), newClock())
	defer func() {
		c.Close()
		<-d.recvDone
	}()
	if stall > 0 {
		d.stallAfter, d.stallFor = 2000, stall
	}
	const rate = 20_000
	ph := &phase{t0: d.clock(), dur: int64(300 * time.Millisecond), interval: 1e9 / rate,
		win: int64(50 * time.Millisecond), wins: make([]winStats, 6)}
	if err := pace([]*connGen{d}, []*phase{ph}); err != nil {
		t.Fatal(err)
	}
	if err := d.drain(ph, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if ph.t.completed != ph.attempted || ph.t.failed() != 0 {
		t.Fatalf("tally %+v for %d attempted", ph.t, ph.attempted)
	}
	return ph
}

// An injected generator stall must show up in the latencies of the
// requests due during it, because latency is timed from the intended
// send time, not from when the late generator got round to sending.
func TestGeneratorStallShowsInLatency(t *testing.T) {
	addr := startTestServer(t)
	const stall = 60 * time.Millisecond
	ph := runStalled(t, addr, stall)
	all := allOf(&winStats{get: ph.get, mut: ph.mut})
	// 1200 requests fall due during the stall, a fifth of the 6000;
	// their mean wait is half the stall.
	if p := all.pct(0.85); !p.OK || p.Value < float64(stall)/4 {
		t.Errorf("p85 latency %.0fµs after a %v stall; the stall is hidden", p.Value/1e3, stall)
	}
	// Windows entirely before the stall are unaffected.
	w0 := allOf(&ph.wins[0])
	if p := w0.pct(0.5); !p.OK || p.Value > float64(stall)/4 {
		t.Errorf("pre-stall window p50 %.0fµs", p.Value/1e3)
	}
	if lag := ph.lag.pct(0.85); lag.Value < float64(stall)/4 {
		t.Errorf("lag p85 %.0fµs does not show the stall", lag.Value/1e3)
	}
}
