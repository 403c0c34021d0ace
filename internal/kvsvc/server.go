package kvsvc

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gosmr/gosmr/internal/netpoll"
	"github.com/gosmr/gosmr/internal/smr"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Addr is the TCP listen address for the wire protocol (e.g.
	// "127.0.0.1:7070"; ":0" picks a free port).
	Addr string
	// AdminAddr is the HTTP admin listen address ("" disables admin).
	AdminAddr string
	// MaxConns caps concurrently served connections; accepts beyond the
	// cap are closed immediately (accept-time shedding). 0 selects the
	// default (1024); negative means unlimited.
	MaxConns int
	// ConnBudget is the netpoll layer's per-connection in-flight response
	// budget: the number of responses one connection may have buffered
	// and not yet handed to the kernel. Requests past the budget are
	// answered with StatusOverloaded, which bounds the nonblocking
	// outbound buffer of a connection that stops reading. The goroutine
	// layer needs no budget: its reader writes its own responses, so a
	// connection's unsent responses never exceed one read buffer's worth.
	// 0 selects the default (128).
	ConnBudget int
	// IdleTimeout is the maximum time the server waits for the next frame
	// from a client before evicting the connection. 0 selects the default
	// (2m); negative disables the idle deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds how long a client may leave its responses
	// untaken: a connection is evicted once a response write stalls this
	// long, or (goroutine layer) once unsent response bytes sit in the
	// kernel this long while it waits for requests; netpoll watches its
	// outbound buffer's progress instead. 0 selects the default (10s);
	// negative disables it.
	WriteTimeout time.Duration
	// ConnWriteBuffer caps the kernel send buffer (SO_SNDBUF) of each
	// accepted TCP connection. It bounds the kernel memory one
	// non-reading client can pin and is what makes WriteTimeout eviction
	// responsive: with the default autotuned buffer the kernel absorbs
	// megabytes of responses before a write ever stalls, so a slow
	// reader is only evicted after its whole receive window AND a
	// multi-megabyte send buffer fill. 0 selects the default (64 KiB);
	// negative leaves the kernel default (autotuning).
	ConnWriteBuffer int
	// ReadHandleCache caps the idle per-shard store handles kept for
	// handoff between connections (see handlePool). 0 selects the
	// default (16 per shard); negative disables caching, so every
	// connection teardown releases its handles straight back to the
	// store's domains.
	ReadHandleCache int
	// Netpoll serves connections on the event-driven layer
	// (internal/netpoll): a fixed set of poller goroutines instead of a
	// goroutine per connection. Designed for mostly-idle fleets of 100k+
	// conns; see npserver.go for the contract deltas.
	Netpoll bool
	// Pollers is the netpoll poller-goroutine count. 0 selects the
	// netpoll default (min(8, GOMAXPROCS)).
	Pollers int
	// NetpollPortable forces netpoll's portable goroutine backend even
	// where epoll is available (A/B testing and the cross-backend test
	// matrix).
	NetpollPortable bool
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConns == 0 {
		c.MaxConns = 1024
	}
	if c.ConnBudget <= 0 {
		c.ConnBudget = 128
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.ConnWriteBuffer == 0 {
		c.ConnWriteBuffer = 64 << 10
	}
	if c.ReadHandleCache == 0 {
		c.ReadHandleCache = 16
	}
	return c
}

// Server fronts a Store with the wire protocol and an HTTP admin endpoint
// serving live per-shard smr.Stats. Every request runs to completion on
// the goroutine that read it: a connection's own goroutine (or, in
// netpoll mode, its poller), using store handles borrowed per shard from
// a pool. There are no shard workers and no queues, so one connection's
// requests execute in the order it sent them.
//
// Overload model: the server never lets one peer block shared progress.
// Accepts past MaxConns are shed at accept time; connections that stop
// sending (IdleTimeout) or stop reading (WriteTimeout) are evicted; in
// netpoll mode, requests past a connection's ConnBudget are answered
// StatusOverloaded. Every such event is counted and exported via
// AdminStats.
type Server struct {
	cfg   ServerConfig
	store *Store

	ln       net.Listener
	adminLn  *adminListener
	admin    *http.Server
	adminErr chan error

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	// Netpoll mode (cfg.Netpoll): poll owns every conn's readiness and
	// I/O; npConns tracks live handlers for drain; pollerHandles is one
	// lazily-filled per-shard handle set per poller — handles are owned
	// per poller, not per conn, which is what keeps Registry.Len() flat
	// at idle-fleet scale.
	poll          netpoll.Poll
	pollerHandles []*connHandles
	npMu          sync.Mutex
	npConns       map[*npConn]struct{}
	npWG          sync.WaitGroup

	handles *handlePool

	draining  atomic.Bool
	accepted  atomic.Int64
	served    atomic.Int64
	gets      atomic.Int64
	liveConns atomic.Int64

	shedConns   atomic.Int64 // accepts closed at the MaxConns cap
	shedBudget  atomic.Int64 // StatusOverloaded: connection budget exceeded (netpoll)
	shedDropped atomic.Int64 // budget sheds and pings dropped because the peer is not reading either (netpoll)
	evictedIdle atomic.Int64 // connections evicted by the read (idle) deadline
	evictedSlow atomic.Int64 // connections evicted for leaving responses untaken (WriteTimeout)

	// Unread-backlog gauges (SIOCOUTQ), sampled at each slow-reader
	// eviction: the explicit staleness signal that keeps working once
	// responses outgrow tiny frames (ROADMAP). Zero where the platform
	// can't answer.
	evictedSlowOutqLast atomic.Int64
	evictedSlowOutqMax  atomic.Int64
}

// NewServer binds the listeners; call Serve to start accepting. The
// server owns store's drain: Shutdown calls store.Drain after the last
// connection is gone.
func NewServer(store *Store, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, store: store, conns: map[net.Conn]struct{}{}}
	s.handles = newHandlePool(store, cfg.ReadHandleCache)

	var err error
	if cfg.Netpoll {
		s.npConns = map[*npConn]struct{}{}
		pcfg := netpoll.Config{
			Pollers:           cfg.Pollers,
			IdleTimeout:       cfg.IdleTimeout,
			WriteStallTimeout: cfg.WriteTimeout,
			ForcePortable:     cfg.NetpollPortable,
		}
		if s.poll, err = netpoll.New(pcfg); err != nil {
			return nil, err
		}
		s.pollerHandles = make([]*connHandles, len(s.poll.ConnCounts()))
		for i := range s.pollerHandles {
			s.pollerHandles[i] = newConnHandles(s.handles)
		}
	}
	if s.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		if s.poll != nil {
			s.poll.Close()
		}
		return nil, err
	}
	if cfg.AdminAddr != "" {
		aln, err := net.Listen("tcp", cfg.AdminAddr)
		if err != nil {
			s.ln.Close()
			return nil, err
		}
		s.adminLn = &adminListener{Listener: aln}
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", s.handleStats)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		s.admin = &http.Server{Handler: mux}
		s.adminErr = make(chan error, 1)
		go func() { s.adminErr <- s.admin.Serve(s.adminLn) }()
	}
	return s, nil
}

// adminListener remembers whether anything but Shutdown closed it. A
// listener closed just before Shutdown is a failure while serving even
// when http.Server.Serve only notices it after Shutdown began, and so
// returns ErrServerClosed.
type adminListener struct {
	net.Listener
	shutdown atomic.Bool // set by Shutdown before it closes the listener
	lost     atomic.Bool
}

func (l *adminListener) Close() error {
	if !l.shutdown.Load() {
		l.lost.Store(true)
	}
	return l.Listener.Close()
}

// Addr returns the wire listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AdminAddr returns the admin listener's address, or "".
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Serve accepts connections until Shutdown closes the listener. It
// returns nil on graceful shutdown. Accepts past MaxConns are shed
// (closed immediately) so a connection flood cannot exhaust goroutines;
// only the accept loop increments liveConns, so the cap is strict.
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.accepted.Add(1)
		if max := s.cfg.MaxConns; max > 0 && s.liveConns.Load() >= int64(max) {
			s.shedConns.Add(1)
			c.Close()
			continue
		}
		if tc, ok := c.(*net.TCPConn); ok && s.cfg.ConnWriteBuffer > 0 {
			tc.SetWriteBuffer(s.cfg.ConnWriteBuffer)
		}
		s.liveConns.Add(1)
		if s.poll != nil {
			s.acceptNetpoll(c)
			continue
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(c)
	}
}

// execute runs one request against the shard handle set hs and returns
// its response. A ping touches no shard; its Val echoes the request's.
func (s *Server) execute(hs *connHandles, r Request) Response {
	if r.Op == OpPing {
		return Response{ID: r.ID, Status: StatusOK, Val: r.Val}
	}
	h := hs.handle(s.store.ShardOf(r.Key))
	switch r.Op {
	case OpGet:
		if v, ok := h.Get(r.Key); ok {
			return Response{ID: r.ID, Status: StatusOK, Val: v}
		}
		return Response{ID: r.ID, Status: StatusNotFound}
	case OpPut:
		if Put(h, r.Key, r.Val) {
			return Response{ID: r.ID, Status: StatusOK}
		}
		return Response{ID: r.ID, Status: StatusErr}
	case OpDel:
		if h.Delete(r.Key) {
			return Response{ID: r.ID, Status: StatusOK}
		}
		return Response{ID: r.ID, Status: StatusNotFound}
	}
	return Response{ID: r.ID, Status: StatusErr}
}

// serveConn owns one connection and runs every request to completion on
// its own goroutine: read a frame, execute it on the connection's
// lazily borrowed shard handles, append the response to out. out is
// written with one Write whenever the next frame is not already in the
// read buffer, so a pipelined burst costs one read and one write
// syscall, and the connection's unsent responses never exceed the
// responses to one read buffer's worth of requests.
//
// Deadlines are armed at that flush point only: the write deadline once
// per Write, the read deadline before the read that may block (see
// awaitInput). A peer that stops reading therefore blocks this
// goroutine, and only this one, until WriteTimeout evicts it; its
// handles sit idle meanwhile (no operation is in progress, so no epoch
// is pinned, and whatever its hazard slots still hold is bounded by the
// slot count).
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	hs := newConnHandles(s.handles)
	defer func() {
		hs.release() // hand the handles to the pool for the next connection
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
		s.liveConns.Add(-1)
	}()

	br := bufio.NewReader(c)
	var frame, out []byte
	var served, gets int64
	// flush counts the batch and writes it; false means the connection
	// is broken (evicted if the write deadline expired).
	flush := func() bool {
		s.served.Add(served)
		s.gets.Add(gets)
		served, gets = 0, 0
		if len(out) == 0 {
			return true
		}
		if s.cfg.WriteTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		_, err := c.Write(out)
		out = out[:0]
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.dropSlowReader(c, unsent(c))
			}
			return false
		}
		return true
	}
	for {
		if !frameBuffered(br) {
			if !flush() || !s.awaitInput(c, br) {
				return
			}
		}
		var err error
		frame, err = ReadFrame(br, frame)
		if err != nil {
			// io.EOF is a clean close; a deadline expiry mid-frame is a
			// slow-reader eviction if responses are still unsent (the
			// peer's stalled window can hold back its own requests too)
			// and an idle one (a trickled frame) otherwise; anything else
			// (truncated frame, garbage length, oversized frame) poisons
			// the byte stream. The connection is dropped either way, after
			// answering what it already sent.
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if q := unsent(c); q > 0 {
					s.dropSlowReader(c, q)
				} else {
					s.evictedIdle.Add(1)
				}
			}
			break
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			break
		}
		out = AppendResponse(out, s.execute(hs, req))
		served++
		if req.Op == OpGet {
			gets++
		}
	}
	flush()
}

// awaitInput blocks until the next request's first byte is buffered,
// reporting false when the connection must be dropped. The read deadline
// is the idle deadline, or WriteTimeout when that is sooner, re-armed
// until IdleTimeout has passed. A WriteTimeout expiry with bytes still
// in the kernel's send queue (SIOCOUTQ) evicts the peer as a slow
// reader: nothing was written since the last flush, so the peer has
// left those bytes untaken for WriteTimeout, as if a Write had blocked
// that long. (The peer's window can stall with the goroutine in Read,
// not Write.) The deadline stays armed for the frame that follows, so a
// trickled frame cannot extend it.
func (s *Server) awaitInput(c net.Conn, br *bufio.Reader) bool {
	idle, wt := s.cfg.IdleTimeout, s.cfg.WriteTimeout
	start := time.Now()
	for now := start; ; now = time.Now() {
		var deadline time.Time
		if idle > 0 {
			deadline = start.Add(idle)
		}
		if d := now.Add(wt); wt > 0 && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
		c.SetReadDeadline(deadline)
		_, err := br.Peek(1)
		if err == nil {
			return true
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return false // EOF or a broken stream: nothing to answer
		}
		if q := unsent(c); q > 0 {
			s.dropSlowReader(c, q)
			return false
		}
		if idle > 0 && time.Since(start) >= idle {
			s.evictedIdle.Add(1)
			return false
		}
	}
}

// dropSlowReader counts the slow-reader eviction of c, which holds q
// unsent bytes, and makes its coming Close abortive. The peer is not
// taking its responses, so they are discarded with an RST; a graceful
// close would leave the kernel retrying them, and a peer whose window is
// stalled can then wait minutes for a FIN that cannot reach it.
func (s *Server) dropSlowReader(c net.Conn, q int) {
	s.evictSlow(q)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
}

// unsent reports the response bytes the kernel still holds for the peer
// (SIOCOUTQ), or 0 where the platform cannot tell.
func unsent(c net.Conn) int {
	q, _ := netpoll.SockOutq(c)
	return q
}

// frameBuffered reports whether br already holds one complete frame, so
// reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < hdrLen {
		return false
	}
	hdr, _ := br.Peek(hdrLen) // buffered: no I/O
	return n >= hdrLen+int(binary.BigEndian.Uint32(hdr))
}

// Shutdown gracefully drains the server: stop accepting, let live
// connections finish their pipelines (force-closing them if ctx expires
// first), drain the store's reclamation domains, and stop the admin
// endpoint. It returns an error if the admin listener
// failed while serving or if any arena pool recorded a detect-mode
// violation (use-after-free or double free).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()

	if s.poll != nil {
		s.drainNetpoll(ctx)
	} else {
		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.connMu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
			<-done
		}
	}

	// Netpoll mode: the pollers are gone, so the per-poller handle sets
	// can go back to the pool before the final pass.
	for _, hs := range s.pollerHandles {
		hs.release()
	}
	// Every connection has returned its handles by now (connWG), so the
	// pool holds all idle handles; release them before the store's final
	// reclamation pass.
	s.handles.drain()
	s.store.Drain()

	var errs []error
	if s.admin != nil {
		s.adminLn.shutdown.Store(true)
		s.admin.Shutdown(context.Background())
		// Serve has returned by now (its listener is closed); surface any
		// failure other than the clean ErrServerClosed instead of having
		// lost it to a fire-and-forget goroutine.
		if err := <-s.adminErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("kvsvc: admin listener: %w", err))
		} else if s.adminLn.lost.Load() {
			errs = append(errs, errors.New("kvsvc: admin listener closed while serving"))
		}
	}

	if uaf, df := s.store.BugCounts(); uaf > 0 || df > 0 {
		errs = append(errs, fmt.Errorf("kvsvc: arena detected %d use-after-free and %d double-free violations", uaf, df))
	}
	return errors.Join(errs...)
}

// Served returns the number of requests executed, pings included.
func (s *Server) Served() int64 { return s.served.Load() }

// AdminStats is the JSON document served at the admin endpoint's /stats
// (and scraped by kvload): store-wide totals, the overload/eviction
// counters, plus one smr.Stats row per shard with arena gauges filled.
type AdminStats struct {
	Scheme        string `json:"scheme"`
	Engine        string `json:"engine"`
	Shards        int    `json:"shards"`
	AcceptedConns int64  `json:"accepted_conns"`
	LiveConns     int64  `json:"live_conns"`
	ServedOps     int64  `json:"served_ops"`
	// FastpathGets counts GETs. It is named for the read fast path that
	// once bypassed the shard workers; every GET now runs on the
	// goroutine that read it.
	FastpathGets int64 `json:"fastpath_gets"`
	LiveHandles  int   `json:"live_handles"`
	ShedConns    int64 `json:"shed_conns"`
	ShedBudget   int64 `json:"shed_budget"`
	ShedDropped  int64 `json:"shed_dropped"`
	ShedTotal    int64 `json:"shed_total"`
	EvictedIdle  int64 `json:"evicted_idle"`
	EvictedSlow  int64 `json:"evicted_slow"`
	// Unread-backlog (SIOCOUTQ) sampled at the most recent / worst
	// slow-reader eviction; 0 where unsupported.
	EvictedSlowOutqBytes    int64 `json:"evicted_slow_outq_bytes"`
	EvictedSlowOutqMaxBytes int64 `json:"evicted_slow_outq_max_bytes"`
	// Process-level gauges for the idle-fleet accounting: kvload derives
	// bytes-per-conn and the O(pollers) goroutine check from
	// these (request /stats?gc=1 for a post-GC heap reading).
	Goroutines      int   `json:"goroutines"`
	HeapInuseBytes  int64 `json:"heap_inuse_bytes"`
	StackInuseBytes int64 `json:"stack_inuse_bytes"`
	// Netpoll reports whether the event-driven connection layer is
	// serving; PollerConns is live conns per poller (empty when off).
	Netpoll     bool   `json:"netpoll"`
	NetpollKind string `json:"netpoll_kind,omitempty"`
	PollerConns []int  `json:"poller_conns,omitempty"`

	ArenaLiveBytes  int64       `json:"arena_live_bytes"`
	ArenaPeakBytes  int64       `json:"arena_peak_bytes"`
	ArenaUAF        int64       `json:"arena_uaf"`
	ArenaDoubleFree int64       `json:"arena_double_free"`
	Total           smr.Stats   `json:"total"`
	PerShard        []smr.Stats `json:"per_shard"`
}

// evictSlow counts a slow-reader eviction and updates the unread-backlog
// gauges with the socket's send-queue depth q (0 where unknown).
func (s *Server) evictSlow(q int) {
	s.evictedSlow.Add(1)
	s.evictedSlowOutqLast.Store(int64(q))
	for {
		m := s.evictedSlowOutqMax.Load()
		if int64(q) <= m || s.evictedSlowOutqMax.CompareAndSwap(m, int64(q)) {
			return
		}
	}
}

// Snapshot builds the AdminStats document.
func (s *Server) Snapshot() AdminStats {
	per := s.store.ShardStats()
	at := s.store.ArenaTotals()
	shedB, shedC := s.shedBudget.Load(), s.shedConns.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var pollerConns []int
	kind := ""
	if s.poll != nil {
		pollerConns = s.poll.ConnCounts()
		kind = s.poll.Kind()
	}
	return AdminStats{
		Scheme:                  s.store.Scheme(),
		Engine:                  s.store.Engine(),
		Shards:                  s.store.NumShards(),
		AcceptedConns:           s.accepted.Load(),
		LiveConns:               s.liveConns.Load(),
		ServedOps:               s.served.Load(),
		FastpathGets:            s.gets.Load(),
		LiveHandles:             s.store.LiveHandles(),
		ShedConns:               shedC,
		ShedBudget:              shedB,
		ShedDropped:             s.shedDropped.Load(),
		ShedTotal:               shedB + shedC,
		EvictedIdle:             s.evictedIdle.Load(),
		EvictedSlow:             s.evictedSlow.Load(),
		EvictedSlowOutqBytes:    s.evictedSlowOutqLast.Load(),
		EvictedSlowOutqMaxBytes: s.evictedSlowOutqMax.Load(),
		Goroutines:              runtime.NumGoroutine(),
		HeapInuseBytes:          int64(ms.HeapInuse),
		StackInuseBytes:         int64(ms.StackInuse),
		Netpoll:                 s.poll != nil,
		NetpollKind:             kind,
		PollerConns:             pollerConns,
		ArenaLiveBytes:          at.Bytes,
		ArenaPeakBytes:          at.PeakBytes,
		ArenaUAF:                at.UAF,
		ArenaDoubleFree:         at.DoubleFree,
		Total:                   AggregateStats(per),
		PerShard:                per,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// ?gc=1 forces a collection first so heap_inuse_bytes measures live
	// memory, not float — the difference between "bytes per conn" and
	// "bytes the allocator hasn't gotten to yet" at idle-fleet scale.
	if r.URL.Query().Get("gc") == "1" {
		runtime.GC()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}
