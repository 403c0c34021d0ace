// Command kvload drives a running gosmrd with a Zipf-skewed get/put/del
// mix over N pipelined connections, then reports throughput, request
// latency percentiles, and the reclamation high-water marks scraped from
// the daemon's admin endpoint.
//
//	kvload -addr 127.0.0.1:7070 -admin 127.0.0.1:7071 \
//	       -conns 8 -requests 100000 -zipf 1.1 -out BENCH_kvsvc.json
//
// The skew matters for SMR: a Zipf workload hammers a few hot keys, so
// deletes and re-inserts keep retiring nodes that concurrent readers on
// other connections may still be traversing — exactly the traffic shape
// hazard-pointer schemes must survive. With gosmrd in -mode detect the
// arena validates every access; kvload exits non-zero if the scrape shows
// any use-after-free or double-free, making the pair a one-command
// end-to-end safety check.
//
// kvload implements the client half of the overload contract: a request
// answered StatusOverloaded is retried with jittered exponential backoff
// (up to -retries attempts) instead of being counted as served, every
// read carries a -req-timeout deadline, and shed/retried/failed totals
// are reported next to the latency numbers. Against a deliberately
// saturated server the expected outcome is nonzero sheds and retries but
// zero failures — the workload recovers to 100% completion.
//
// With -preload N, kvload first bulk-puts keys [0,N) over contiguous
// per-connection ranges (latencies discarded) before the measured phase:
// against the somap engine this walks the shard directories through
// their full doubling cascade, so the measured mix — and the separately
// reported GET-only p99 — observes the resized map.
//
// With -idle-conns N, kvload additionally parks N silent connections
// (one ping handshake each, source addresses rotated over 127.0.0.x by
// -src-ips) before the measured phase, and reads the server's post-GC
// memory and goroutine gauges with the fleet up: the -conns hot subset
// then measures latency while the fleet idles. The resulting cell
// carries idle_conns / bytes_per_conn / goroutines / live_handles /
// netpoll_kind, which `benchcompare -conns` gates — mostly-idle fleets
// must cost bounded bytes per conn, a conn-independent goroutine count,
// and a flat fast-path handle census.
//
// With -out, kvload writes a bench.ReclaimReport-shaped JSON artifact
// (one service-layer cell with latency percentiles and the store-wide
// smr.Stats) that cmd/benchcompare can diff against a previous run;
// -append merges the new cell into an existing report so the netpoll
// and goroutine-baseline phases of scripts/bench_conns.sh share one
// BENCH_conns.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/kvsvc"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "gosmrd wire address")
		admin    = flag.String("admin", "", "gosmrd admin address to scrape after the run (empty skips)")
		conns    = flag.Int("conns", 8, "concurrent connections")
		requests = flag.Int("requests", 10000, "total requests across all connections")
		keys     = flag.Uint64("keys", 65536, "key space size")
		zipfS    = flag.Float64("zipf", 1.1, "Zipf skew exponent s (<=1 means uniform)")
		getPct   = flag.Int("get", 80, "percent gets")
		putPct   = flag.Int("put", 15, "percent puts (rest are deletes)")
		pipeline = flag.Int("pipeline", 32, "max in-flight requests per connection")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		preload  = flag.Uint64("preload", 0, "bulk-put keys [0,N) before the measured phase (forces somap directory grows)")
		out      = flag.String("out", "", "write a BENCH_kvsvc.json report here")
		note     = flag.String("note", "", "free-form tag appended to the workload string in output and reports")
		dialT    = flag.Duration("dial-timeout", 5*time.Second, "keep retrying the first dial for this long")

		reqT       = flag.Duration("req-timeout", 10*time.Second, "per-request response deadline (0 disables)")
		maxRetries = flag.Int("retries", 10, "max resends of a request answered StatusOverloaded")
		backoff    = flag.Duration("backoff", 2*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
		backoffMax = flag.Duration("backoff-max", 200*time.Millisecond, "retry backoff cap")

		idleConns = flag.Int("idle-conns", 0, "park this many extra idle connections while the -conns hot subset runs the measured mix (requires -admin)")
		idleHold  = flag.Duration("idle-hold", 2*time.Second, "settle time between the fleet coming up and the memory/goroutine reading")
		srcIPs    = flag.Int("src-ips", 1, "rotate fleet source addresses over 127.0.0.1..127.0.0.N (loopback only) to stretch the ephemeral port space")
		dialers   = flag.Int("dialers", 64, "parallel dial workers bringing the idle fleet up")
		appendOut = flag.Bool("append", false, "append the result cell to an existing -out report instead of overwriting it")
	)
	flag.Parse()
	if *conns < 1 || *requests < 1 || *pipeline < 1 || *keys < 2 {
		fmt.Fprintln(os.Stderr, "kvload: conns, requests, pipeline must be >= 1 and keys >= 2")
		os.Exit(2)
	}
	if *getPct < 0 || *putPct < 0 || *getPct+*putPct > 100 {
		fmt.Fprintln(os.Stderr, "kvload: -get and -put must be >= 0 and sum to <= 100")
		os.Exit(2)
	}

	// Preload phase: contiguous sequential put ranges, one per
	// connection, so N distinct keys land in the store before anything is
	// measured. Against the somap engine this drives the per-shard
	// directories through their full doubling cascade; the measured phase
	// then sees the *resized* map, which is exactly what the scaling gate
	// (p99 GET at 1M keys vs 10k) wants to observe. Preload latencies are
	// discarded.
	if *preload > 0 {
		pStart := time.Now()
		var pwg sync.WaitGroup
		var pmu sync.Mutex
		var ptotal connResult
		var pcount int64
		per := *preload / uint64(*conns)
		for c := 0; c < *conns; c++ {
			from := uint64(c) * per
			to := from + per
			if c == *conns-1 {
				to = *preload
			}
			if to == from {
				continue
			}
			pwg.Add(1)
			go func(from, to uint64) {
				defer pwg.Done()
				start := from
				res := runConn(*addr, *dialT, connParams{
					ops:        int(to - from),
					keys:       *keys,
					pipeline:   *pipeline,
					reqTimeout: *reqT,
					maxRetries: *maxRetries,
					backoff:    *backoff,
					backoffMax: *backoffMax,
					seqPutFrom: &start,
				})
				pmu.Lock()
				pcount += int64(len(res.lats))
				ptotal.statusErrs += res.statusErrs
				ptotal.failed += res.failed
				pmu.Unlock()
			}(from, to)
		}
		pwg.Wait()
		if ptotal.statusErrs > 0 || ptotal.failed > 0 || pcount != int64(*preload) {
			fmt.Fprintf(os.Stderr, "kvload: preload incomplete: %d/%d puts (errs=%d failed=%d)\n",
				pcount, *preload, ptotal.statusErrs, ptotal.failed)
			os.Exit(1)
		}
		fmt.Printf("kvload: preloaded %d keys in %v\n", *preload, time.Since(pStart).Round(time.Millisecond))
	}

	// Idle-fleet phase: park -idle-conns extra connections (each completes
	// one ping handshake, then goes silent) and read the server's post-GC
	// memory and goroutine gauges with the fleet up but BEFORE the hot
	// subset runs, so bytes-per-conn isolates connection cost from both
	// the preloaded store and the hot traffic's allocations.
	var (
		fleet []net.Conn
		idle  *idleCell
	)
	if *idleConns > 0 {
		if *admin == "" {
			fmt.Fprintln(os.Stderr, "kvload: -idle-conns requires -admin for the memory/goroutine gauges")
			os.Exit(2)
		}
		// The pre-fleet scrape is the first contact with the daemon, so it
		// retries like the first wire dial does (the scripts start kvload
		// and gosmrd together).
		var base *kvsvc.AdminStats
		for deadline := time.Now().Add(*dialT); ; time.Sleep(50 * time.Millisecond) {
			var err error
			if base, err = scrapeGC(*admin); err == nil {
				break
			}
			if time.Now().After(deadline) {
				fmt.Fprintln(os.Stderr, "kvload: admin scrape (pre-fleet):", err)
				os.Exit(1)
			}
		}
		fStart := time.Now()
		var err error
		fleet, err = openIdleFleet(*addr, *idleConns, *srcIPs, *dialers, *dialT)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvload: idle fleet:", err)
			os.Exit(1)
		}
		fmt.Printf("kvload: idle fleet of %d conns up in %v (%d source ips)\n",
			len(fleet), time.Since(fStart).Round(time.Millisecond), *srcIPs)
		time.Sleep(*idleHold)
		with, err := scrapeGC(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvload: admin scrape (fleet up):", err)
			os.Exit(1)
		}
		if with.LiveConns < int64(*idleConns) {
			fmt.Fprintf(os.Stderr, "kvload: fleet eroded: live_conns=%d < idle fleet %d (idle-evicted? raise gosmrd -idle-timeout)\n",
				with.LiveConns, *idleConns)
			os.Exit(1)
		}
		idle = &idleCell{
			conns:      *idleConns,
			goroutines: with.Goroutines,
			bytesPerConn: float64((with.HeapInuseBytes+with.StackInuseBytes)-
				(base.HeapInuseBytes+base.StackInuseBytes)) / float64(*idleConns),
		}
		fmt.Printf("kvload: fleet gauges: goroutines=%d bytes_per_conn=%.1f (heap+stack delta) netpoll=%v/%s\n",
			idle.goroutines, idle.bytesPerConn, with.Netpoll, with.NetpollKind)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		allLats []int64 // per-request latency, ns
		getLats []int64 // GET-only subset
		total   connResult
	)
	start := time.Now()
	for c := 0; c < *conns; c++ {
		ops := *requests / *conns
		if c < *requests%*conns {
			ops++
		}
		if ops == 0 {
			continue
		}
		wg.Add(1)
		go func(c, ops int) {
			defer wg.Done()
			res := runConn(*addr, *dialT, connParams{
				ops:        ops,
				keys:       *keys,
				zipfS:      *zipfS,
				getPct:     *getPct,
				putPct:     *putPct,
				pipeline:   *pipeline,
				seed:       *seed + int64(c)*0x9E3779B9,
				reqTimeout: *reqT,
				maxRetries: *maxRetries,
				backoff:    *backoff,
				backoffMax: *backoffMax,
			})
			mu.Lock()
			allLats = append(allLats, res.lats...)
			getLats = append(getLats, res.getLats...)
			total.statusErrs += res.statusErrs
			total.shed += res.shed
			total.retried += res.retried
			total.failed += res.failed
			mu.Unlock()
		}(c, ops)
	}
	wg.Wait()
	wall := time.Since(start)

	if len(allLats) == 0 {
		fmt.Fprintln(os.Stderr, "kvload: no responses received")
		os.Exit(1)
	}
	sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
	p50 := percentileUs(allLats, 0.50)
	p95 := percentileUs(allLats, 0.95)
	p99 := percentileUs(allLats, 0.99)
	var p50Get, p99Get float64
	if len(getLats) > 0 {
		sort.Slice(getLats, func(i, j int) bool { return getLats[i] < getLats[j] })
		p50Get = percentileUs(getLats, 0.50)
		p99Get = percentileUs(getLats, 0.99)
	}
	opsPerSec := float64(len(allLats)) / wall.Seconds()

	delPct := 100 - *getPct - *putPct
	workload := fmt.Sprintf("zipf(%.2f) get=%d%%/put=%d%%/del=%d%% pipeline=%d", *zipfS, *getPct, *putPct, delPct, *pipeline)
	if *note != "" {
		workload += " " + *note
	}
	fmt.Printf("kvload: %d ops over %d conns in %v (%s)\n", len(allLats), *conns, wall.Round(time.Millisecond), workload)
	fmt.Printf("kvload: throughput %.0f ops/s, latency p50=%.1fµs p95=%.1fµs p99=%.1fµs p50(get)=%.1fµs p99(get)=%.1fµs\n", opsPerSec, p50, p95, p99, p50Get, p99Get)
	fmt.Printf("kvload: overload shed=%d retried=%d failed=%d\n", total.shed, total.retried, total.failed)
	if n := total.statusErrs; n > 0 {
		fmt.Fprintf(os.Stderr, "kvload: %d requests returned StatusErr\n", n)
		os.Exit(1)
	}
	if total.failed > 0 {
		fmt.Fprintf(os.Stderr, "kvload: %d requests still overloaded after %d retries\n", total.failed, *maxRetries)
		os.Exit(1)
	}
	if got := len(allLats); got != *requests {
		fmt.Fprintf(os.Stderr, "kvload: sent %d requests but completed %d\n", *requests, got)
		os.Exit(1)
	}

	// Scrape the admin endpoint for the server-side view: live per-shard
	// smr.Stats, the retired-node high-water mark, and — the safety gate —
	// detect-mode arena violation counters.
	var adminStats *kvsvc.AdminStats
	if *admin != "" {
		st, err := scrape(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvload: admin scrape:", err)
			os.Exit(1)
		}
		adminStats = st
		fmt.Printf("kvload: server %s ops=%d fastpath_gets=%d peak_unreclaimed=%d arena_peak_bytes=%d\n",
			st.Scheme, st.ServedOps, st.FastpathGets, st.Total.PeakUnreclaimed, st.ArenaPeakBytes)
		fmt.Printf("kvload: server shed_total=%d (budget=%d conns=%d dropped=%d) evicted_idle=%d evicted_slow=%d\n",
			st.ShedTotal, st.ShedBudget, st.ShedConns, st.ShedDropped, st.EvictedIdle, st.EvictedSlow)
		if st.ArenaUAF > 0 || st.ArenaDoubleFree > 0 {
			fmt.Fprintf(os.Stderr, "kvload: ARENA VIOLATIONS: uaf=%d double_free=%d\n", st.ArenaUAF, st.ArenaDoubleFree)
			os.Exit(1)
		}
	}

	// Fleet teardown: the post-hot-phase scrape above already captured
	// the handle census with fleet AND hot traffic live; now close every
	// parked conn and insist the server's accounting drains to zero —
	// the client-side half of the flat-registry contract.
	if fleet != nil {
		if adminStats != nil {
			idle.liveHandles = adminStats.LiveHandles
			idle.netpollKind = adminStats.NetpollKind
		}
		for _, c := range fleet {
			c.Close()
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			st, err := scrape(*admin)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kvload: admin scrape (teardown):", err)
				os.Exit(1)
			}
			if st.LiveConns == 0 {
				fmt.Printf("kvload: fleet torn down, live_conns=0 live_handles=%d\n", st.LiveHandles)
				break
			}
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "kvload: fleet teardown stalled: live_conns=%d after 60s\n", st.LiveConns)
				os.Exit(1)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	if *out != "" {
		if err := writeReport(*out, *appendOut, adminStats, idle, *conns, *keys, *preload, workload, opsPerSec, p50, p95, p99, p50Get, p99Get); err != nil {
			fmt.Fprintln(os.Stderr, "kvload: write report:", err)
			os.Exit(1)
		}
		fmt.Printf("kvload: wrote %s\n", *out)
	}
}

type connParams struct {
	ops        int
	keys       uint64
	zipfS      float64
	getPct     int
	putPct     int
	pipeline   int
	seed       int64
	reqTimeout time.Duration
	maxRetries int
	backoff    time.Duration
	backoffMax time.Duration
	// seqPutFrom, when non-nil, switches the connection from the random
	// mix to the preload shape: ops sequential puts starting at
	// *seqPutFrom (key k gets value k+1). Latencies still accumulate but
	// the caller discards them.
	seqPutFrom *uint64
}

// connResult is one connection's tally. Latencies are per completed
// request and per attempt (the clock restarts on each resend): a retried
// request measures the attempt that succeeded, while the shed/retried
// counters report how much extra work overload cost.
type connResult struct {
	lats       []int64
	getLats    []int64 // subset of lats: completed OpGet requests
	statusErrs int64
	shed       int64 // StatusOverloaded responses received
	retried    int64 // resends scheduled (≤ shed; the rest exhausted their retries)
	failed     int64 // requests abandoned after maxRetries
}

// slot is the per-request state for one pipeline window position.
// Request IDs are slot indices handed out through a free-list, so a
// slot is exclusively owned from send to final response and the state
// cannot be clobbered even when retries complete out of order (the old
// id-mod-pipeline ring assumed strictly ordered completion, which
// StatusOverloaded resends break). The mutex covers the handoff between
// the sender writing req/start and the receiver reading them; there is
// no channel edge between those two, only the server round-trip.
type slot struct {
	mu    sync.Mutex
	req   kvsvc.Request
	tries int
	start int64
}

// runConn drives one pipelined connection: a sender that keeps up to
// pipeline requests outstanding (flushing its write buffer only when it
// would otherwise block, so a burst costs one syscall) and a receiver
// that completes slots, schedules backoff resends for StatusOverloaded,
// and enforces the per-request response deadline.
func runConn(addr string, dialT time.Duration, p connParams) connResult {
	var res connResult
	c, br := dialAdmitted(addr, dialT, p, &res)
	if c == nil {
		res.failed += int64(p.ops)
		return res
	}
	defer c.Close()
	bw := bufio.NewWriter(c)

	rng := rand.New(rand.NewSource(p.seed))
	var zipf *rand.Zipf
	if p.zipfS > 1 {
		zipf = rand.NewZipf(rng, p.zipfS, 1, p.keys-1)
	}
	nextKey := func() uint64 {
		if zipf != nil {
			return zipf.Uint64()
		}
		return uint64(rng.Int63n(int64(p.keys)))
	}

	slots := make([]slot, p.pipeline)
	free := make(chan uint32, p.pipeline)
	for i := 0; i < p.pipeline; i++ {
		free <- uint32(i)
	}
	// Resends parked by backoff timers. At most one per outstanding slot,
	// so the buffer guarantees a fired timer never blocks (and a timer
	// that outlives an aborted run just parks its send in the buffer).
	retries := make(chan kvsvc.Request, p.pipeline)
	dead := make(chan struct{})     // receiver bailed out; sender must stop
	doneRecv := make(chan struct{}) // all ops completed
	var outstanding atomic.Int64

	res.lats = make([]int64, 0, p.ops)

	var recvWG sync.WaitGroup
	recvWG.Add(1)
	go func() {
		defer recvWG.Done()
		var frame []byte
		for completed := 0; completed < p.ops; {
			if p.reqTimeout > 0 {
				c.SetReadDeadline(time.Now().Add(p.reqTimeout))
			}
			var err error
			frame, err = kvsvc.ReadFrame(br, frame)
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) && outstanding.Load() == 0 {
					// Nothing in flight (every live request is parked in a
					// backoff timer), so no frame was torn mid-read — the
					// stream is intact and the deadline is not a timeout.
					continue
				}
				fmt.Fprintf(os.Stderr, "kvload: read response (%d/%d done, %d outstanding): %v\n",
					completed, p.ops, outstanding.Load(), err)
				close(dead)
				return
			}
			resp, err := kvsvc.DecodeResponse(frame)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kvload: decode response:", err)
				close(dead)
				return
			}
			if int(resp.ID) >= p.pipeline {
				fmt.Fprintf(os.Stderr, "kvload: response id %d outside pipeline window %d\n", resp.ID, p.pipeline)
				close(dead)
				return
			}
			sl := &slots[resp.ID]
			if resp.Status == kvsvc.StatusOverloaded {
				res.shed++
				sl.mu.Lock()
				sl.tries++
				tries := sl.tries
				req := sl.req
				sl.mu.Unlock()
				if tries > p.maxRetries {
					res.failed++
					completed++
					outstanding.Add(-1)
					free <- resp.ID
					continue
				}
				res.retried++
				time.AfterFunc(jitteredBackoff(p.backoff, p.backoffMax, tries), func() {
					retries <- req
				})
				continue
			}
			sl.mu.Lock()
			lat := time.Now().UnixNano() - sl.start
			op := sl.req.Op
			sl.mu.Unlock()
			res.lats = append(res.lats, lat)
			if op == kvsvc.OpGet {
				res.getLats = append(res.getLats, lat)
			}
			if resp.Status == kvsvc.StatusErr {
				res.statusErrs++
			}
			completed++
			outstanding.Add(-1)
			free <- resp.ID
		}
		close(doneRecv)
	}()

	var buf []byte
	broken := false
	send := func(req kvsvc.Request, fresh bool) {
		sl := &slots[req.ID]
		sl.mu.Lock()
		sl.req = req
		if fresh {
			sl.tries = 0
		}
		sl.start = time.Now().UnixNano()
		sl.mu.Unlock()
		buf = kvsvc.AppendRequest(buf[:0], req)
		if _, err := bw.Write(buf); err != nil {
			fmt.Fprintln(os.Stderr, "kvload: write:", err)
			broken = true
		}
	}
	newRequest := func(id uint32) kvsvc.Request {
		if p.seqPutFrom != nil {
			k := *p.seqPutFrom
			*p.seqPutFrom++
			return kvsvc.Request{ID: id, Op: kvsvc.OpPut, Key: k, Val: k + 1}
		}
		req := kvsvc.Request{ID: id, Key: nextKey()}
		switch pick := rng.Intn(100); {
		case pick < p.getPct:
			req.Op = kvsvc.OpGet
		case pick < p.getPct+p.putPct:
			req.Op = kvsvc.OpPut
			req.Val = req.Key + 1
		default:
			req.Op = kvsvc.OpDel
		}
		return req
	}

	sent := 0
	for !broken {
		// Resends first: a shed request already holds its slot, so it
		// gates the window harder than a fresh request would.
		select {
		case r := <-retries:
			send(r, false)
			continue
		default:
		}
		if sent >= p.ops {
			// Everything sent; stay alive to push resends until the
			// receiver completes (or gives up on) the stragglers.
			bw.Flush()
			select {
			case r := <-retries:
				send(r, false)
			case <-doneRecv:
				return finish(bw, &recvWG, &res)
			case <-dead:
				return finish(bw, &recvWG, &res)
			}
			continue
		}
		select {
		case r := <-retries:
			send(r, false)
		case id := <-free:
			outstanding.Add(1)
			sent++
			send(newRequest(id), true)
		case <-dead:
			return finish(bw, &recvWG, &res)
		default:
			// The window is full: push the buffered burst to the server
			// before blocking for a free slot or a resend.
			bw.Flush()
			select {
			case r := <-retries:
				send(r, false)
			case id := <-free:
				outstanding.Add(1)
				sent++
				send(newRequest(id), true)
			case <-dead:
				return finish(bw, &recvWG, &res)
			}
		}
	}
	return finish(bw, &recvWG, &res)
}

// finish flushes whatever is buffered, waits for the receiver, and
// returns the tallied result.
func finish(bw *bufio.Writer, recvWG *sync.WaitGroup, res *connResult) connResult {
	bw.Flush()
	recvWG.Wait()
	return *res
}

// jitteredBackoff is base doubled per attempt (1-based), capped at max,
// then jittered into [d/2, d] so clients shed together do not retry in
// lockstep and re-overload the server in phase.
func jitteredBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base << uint(attempt-1)
	if d <= 0 || d > max {
		d = max
	}
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// dialRetry keeps retrying the dial until the deadline so kvload can be
// started alongside gosmrd (the smoke script does exactly that).
func dialRetry(addr string, d time.Duration) net.Conn {
	deadline := time.Now().Add(d)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "kvload: dial %s: %v\n", addr, err)
			os.Exit(1)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// dialAdmitted dials addr and completes one ping round trip, proving
// the connection got past the server's accept-time cap: a server at
// MaxConns accepts and immediately closes. That close counts as a shed
// and is retried with the StatusOverloaded backoff, up to p.maxRetries
// times; nil means the retries ran out.
func dialAdmitted(addr string, dialT time.Duration, p connParams, res *connResult) (net.Conn, *bufio.Reader) {
	for tries := 1; ; tries++ {
		c := dialRetry(addr, dialT)
		br := bufio.NewReader(c)
		c.SetDeadline(time.Now().Add(dialT))
		_, err := c.Write(kvsvc.AppendRequest(nil, kvsvc.Request{Op: kvsvc.OpPing}))
		if err == nil {
			_, err = kvsvc.ReadFrame(br, nil)
		}
		if err == nil {
			c.SetDeadline(time.Time{})
			return c, br
		}
		c.Close()
		res.shed++
		if tries > p.maxRetries {
			fmt.Fprintf(os.Stderr, "kvload: connection not admitted after %d retries: %v\n", p.maxRetries, err)
			return nil, nil
		}
		res.retried++
		time.Sleep(jitteredBackoff(p.backoff, p.backoffMax, tries))
	}
}

// idleCell accumulates the idle-fleet gauges that end up on the report
// cell: how many conns were parked, what each cost in post-GC server
// memory, the server goroutine count with the fleet live, and the
// fast-path handle census after the hot phase.
type idleCell struct {
	conns        int
	bytesPerConn float64
	goroutines   int
	liveHandles  int
	netpollKind  string
}

// openIdleFleet dials n connections, completes one ping handshake on
// each (so every conn is registered server-side and provably working),
// and leaves them parked. With srcIPs > 1 the fleet's source addresses
// rotate over 127.0.0.1..127.0.0.srcIPs — every 127/8 address is local
// on loopback — so the ephemeral port space stops being the conn-count
// ceiling long before 100k.
func openIdleFleet(addr string, n, srcIPs, dialers int, dialT time.Duration) ([]net.Conn, error) {
	if dialers < 1 {
		dialers = 1
	}
	if srcIPs < 1 {
		srcIPs = 1
	}
	fleet := make([]net.Conn, n)
	var (
		wg      sync.WaitGroup
		firstMu sync.Mutex
		first   error
	)
	fail := func(err error) {
		firstMu.Lock()
		if first == nil {
			first = err
		}
		firstMu.Unlock()
	}
	ping := kvsvc.AppendRequest(nil, kvsvc.Request{Op: kvsvc.OpPing})
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < dialers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hdr [4]byte
			payload := make([]byte, 64)
			for i := range next {
				firstMu.Lock()
				bail := first != nil
				firstMu.Unlock()
				if bail {
					return
				}
				d := net.Dialer{Timeout: dialT}
				if srcIPs > 1 {
					d.LocalAddr = &net.TCPAddr{IP: net.IPv4(127, 0, 0, byte(1+i%srcIPs))}
				}
				c, err := d.Dial("tcp", addr)
				if err != nil {
					fail(fmt.Errorf("dial conn %d: %w", i, err))
					return
				}
				c.SetDeadline(time.Now().Add(dialT))
				if _, err := c.Write(ping); err != nil {
					fail(fmt.Errorf("conn %d ping: %w", i, err))
					c.Close()
					return
				}
				if _, err := io.ReadFull(c, hdr[:]); err != nil {
					fail(fmt.Errorf("conn %d pong header: %w", i, err))
					c.Close()
					return
				}
				ln := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
				if ln <= 0 || ln > len(payload) {
					fail(fmt.Errorf("conn %d pong length %d", i, ln))
					c.Close()
					return
				}
				if _, err := io.ReadFull(c, payload[:ln]); err != nil {
					fail(fmt.Errorf("conn %d pong body: %w", i, err))
					c.Close()
					return
				}
				c.SetDeadline(time.Time{})
				fleet[i] = c
			}
		}()
	}
	wg.Wait()
	if first != nil {
		for _, c := range fleet {
			if c != nil {
				c.Close()
			}
		}
		return nil, first
	}
	return fleet, nil
}

// scrapeGC scrapes /stats?gc=1: the server collects first, so
// heap_inuse_bytes is live memory rather than allocator float.
func scrapeGC(admin string) (*kvsvc.AdminStats, error) {
	resp, err := http.Get("http://" + admin + "/stats?gc=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("admin /stats?gc=1: HTTP %d", resp.StatusCode)
	}
	var st kvsvc.AdminStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func scrape(admin string) (*kvsvc.AdminStats, error) {
	resp, err := http.Get("http://" + admin + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("admin /stats: HTTP %d", resp.StatusCode)
	}
	var st kvsvc.AdminStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// percentileUs returns the p-quantile of sorted ns latencies in µs.
func percentileUs(sorted []int64, p float64) float64 {
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e3
}

// writeReport emits a bench.ReclaimReport with one service-layer cell so
// cmd/benchcompare can diff kvload runs like any other bench artifact.
// The scan section is left zero: there is no in-process scan microbench
// in a network run, and benchcompare skips the scan gate when both
// reports agree it is absent.
func writeReport(path string, appendCell bool, admin *kvsvc.AdminStats, idle *idleCell, conns int, keys, preloaded uint64, workload string, opsPerSec, p50, p95, p99, p50Get, p99Get float64) error {
	cell := bench.CellResult{
		DS:            "kvsvc",
		Scheme:        "unknown",
		Threads:       conns,
		KeyRange:      keys,
		Workload:      workload,
		MopsPerSec:    opsPerSec / 1e6,
		NsPerOp:       1e9 / opsPerSec,
		P50Us:         p50,
		P95Us:         p95,
		P99Us:         p99,
		P50GetUs:      p50Get,
		P99GetUs:      p99Get,
		PreloadedKeys: preloaded,
	}
	if admin != nil {
		cell.Scheme = admin.Scheme
		cell.FastpathGets = admin.FastpathGets
		cell.Stats = admin.Total
	}
	if idle != nil {
		cell.IdleConns = idle.conns
		cell.BytesPerConn = idle.bytesPerConn
		cell.Goroutines = idle.goroutines
		cell.LiveHandles = idle.liveHandles
		cell.NetpollKind = idle.netpollKind
	}
	report := bench.ReclaimReport{
		GeneratedBy: "kvload",
		Cells:       []bench.CellResult{cell},
	}
	if appendCell {
		if data, err := os.ReadFile(path); err == nil {
			var prev bench.ReclaimReport
			if err := json.Unmarshal(data, &prev); err != nil {
				return fmt.Errorf("-append: %s: %w", path, err)
			}
			prev.GeneratedBy = report.GeneratedBy
			prev.Cells = append(prev.Cells, cell)
			report = prev
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
