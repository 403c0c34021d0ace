// Command gosmrd is the sharded key-value daemon: internal/kvsvc's
// Store and Server behind flags. Each shard owns its own reclamation
// domain and hash map; the scheme is selectable so the same traffic can
// be replayed against hp, hp++, ebr or pebr and compared via the admin
// endpoint's live smr.Stats.
//
//	gosmrd -addr :7070 -admin :7071 -shards 8 -scheme hp++
//
// Each request runs to completion on the goroutine that read it — the
// connection's own goroutine, or with -netpoll its poller — so one
// connection's requests execute in the order it sent them, and a
// pipelined burst is answered with one write.
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, let live
// connections finish their pipelines (bounded by -drain-timeout), run
// every scheme's final reclamation, and exit 0
// only if the drain was clean and — in -mode detect — the arena recorded
// zero use-after-free or double-free violations. The final store-wide
// stats snapshot is printed to stdout as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/kvsvc"
)

func main() {
	var (
		addr    = flag.String("addr", ":7070", "wire protocol listen address")
		admin   = flag.String("admin", ":7071", "HTTP admin listen address (empty disables)")
		shards  = flag.Int("shards", 8, "number of shards (one reclamation domain + map each)")
		scheme  = flag.String("scheme", "hp++", "reclamation scheme: "+strings.Join(kvsvc.Schemes, " | "))
		mode    = flag.String("mode", "reuse", "arena mode: reuse (serve) | detect (quarantine + UAF validation)")
		buckets = flag.Int("buckets", 256, "hash buckets per shard (initial directory size for -engine somap)")
		engine  = flag.String("engine", "somap", "shard map engine: "+strings.Join(kvsvc.Engines, " | "))
		drainT  = flag.Duration("drain-timeout", 10*time.Second, "max time to wait for live connections on shutdown")

		maxConns = flag.Int("max-conns", 1024, "max concurrent connections; accepts past the cap are shed (negative = unlimited)")
		budget   = flag.Int("conn-budget", 128, "with -netpoll, per-connection budget of responses not yet written; excess requests get StatusOverloaded")
		idleT    = flag.Duration("idle-timeout", 2*time.Minute, "evict a connection idle this long (negative disables)")
		writeT   = flag.Duration("write-timeout", 10*time.Second, "evict a connection that leaves its responses untaken this long (negative disables)")
		connWbuf = flag.Int("conn-wbuf", 64<<10, "per-connection kernel send buffer cap in bytes (negative = kernel default)")

		readCache = flag.Int("read-handle-cache", 0, "idle store handles pooled per shard across connections (0 = default, negative disables pooling)")

		netpollF        = flag.Bool("netpoll", false, "serve connections on the event-driven poller layer (internal/netpoll) instead of per-connection goroutines")
		pollers         = flag.Int("pollers", 0, "poller goroutines when -netpoll is set (0 = min(8, GOMAXPROCS))")
		netpollPortable = flag.Bool("netpoll-portable", false, "with -netpoll, force the portable net.Conn backend even where epoll is available")
	)
	flag.Parse()

	if !kvsvc.ValidScheme(*scheme) {
		fmt.Fprintf(os.Stderr, "gosmrd: unknown scheme %q (want one of %s)\n", *scheme, strings.Join(kvsvc.Schemes, ", "))
		os.Exit(2)
	}
	if !kvsvc.ValidEngine(*engine) {
		fmt.Fprintf(os.Stderr, "gosmrd: unknown engine %q (want one of %s)\n", *engine, strings.Join(kvsvc.Engines, ", "))
		os.Exit(2)
	}
	var am arena.Mode
	switch *mode {
	case "reuse":
		am = arena.ModeReuse
	case "detect":
		am = arena.ModeDetect
	default:
		fmt.Fprintf(os.Stderr, "gosmrd: unknown mode %q (want reuse or detect)\n", *mode)
		os.Exit(2)
	}

	store, err := kvsvc.NewStore(kvsvc.Config{
		Shards:  *shards,
		Scheme:  *scheme,
		Mode:    am,
		Buckets: *buckets,
		Engine:  *engine,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gosmrd:", err)
		os.Exit(2)
	}
	srv, err := kvsvc.NewServer(store, kvsvc.ServerConfig{
		Addr:            *addr,
		AdminAddr:       *admin,
		MaxConns:        *maxConns,
		ConnBudget:      *budget,
		IdleTimeout:     *idleT,
		WriteTimeout:    *writeT,
		ConnWriteBuffer: *connWbuf,
		ReadHandleCache: *readCache,

		Netpoll:         *netpollF,
		Pollers:         *pollers,
		NetpollPortable: *netpollPortable,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gosmrd:", err)
		os.Exit(2)
	}

	connLayer := "goroutine-per-conn"
	if *netpollF {
		connLayer = "netpoll/" + srv.Snapshot().NetpollKind
	}
	fmt.Fprintf(os.Stderr, "gosmrd: serving %d shards (%s engine, %s, %s mode, %s) on %s, admin on %s\n",
		*shards, *engine, *scheme, *mode, connLayer, srv.Addr(), srv.AdminAddr())

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "gosmrd: serve:", err)
			os.Exit(1)
		}
		return
	case <-sigCtx.Done():
	}

	fmt.Fprintln(os.Stderr, "gosmrd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	<-serveErr

	// Final snapshot to stdout: the machine-readable drain receipt.
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(srv.Snapshot())

	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "gosmrd: drain:", drainErr)
		os.Exit(1)
	}
	if unr := store.Unreclaimed(); unr != 0 && *scheme != "nr" {
		// After a full drain every reclaiming scheme must have handed back
		// all retired nodes (no stalled participants remain by
		// construction). NR leaks by design — it is the no-reclamation
		// throughput ceiling — so it is exempt.
		fmt.Fprintf(os.Stderr, "gosmrd: drain left %d nodes unreclaimed\n", unr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "gosmrd: clean drain")
}
