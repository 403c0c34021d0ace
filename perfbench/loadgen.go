package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

const (
	ringSize = 1 << 14 // in-flight slots per connection; IDs index it
	ringMask = ringSize - 1
	// tick is the sender's wake-up period: each wake sends every
	// request that has come due. Go's time.Sleep rounds up to ~1 ms
	// here, so the sender sleeps with nanosleep on a locked thread with
	// a 1 µs timer slack. The resulting schedule→send lag is part of
	// every latency (they are timed from the intended send time) and is
	// reported on its own as loadgen.lag_p99_us.
	tick = 50 * time.Microsecond
	// inflightCap keeps each connection's requests in flight at half
	// gosmrd's default per-connection budget (-conn-budget 128). The
	// server returns a credit only after its writer has handed the
	// response to the socket, so a client running at the full budget
	// can race the credit and get shed; sheds past a second budget's
	// worth are dropped unanswered. A request held back by the cap is
	// late, and its latency, timed from its intended send, includes the
	// wait.
	inflightCap = 64
	maxBatch    = inflightCap
)

// slot is one in-flight request. The sender fills it and publishes it
// with state=1 before writing the request; the receiver reads it after
// loading state and frees it with state=0.
type slot struct {
	state atomic.Uint32
	id    uint32
	op    uint8
	j     int32
	e     expectation
	ph    *phase
	due   int64
	sent  int64 // write start
	// trace timestamps, filled only for sampled requests
	traced          bool
	encS, encE, wrE int64
}

// winStats are one window's histograms: latencies (receiver-owned) and
// schedule lag (sender-owned).
type winStats struct{ get, mut, lag hist }

// phase is one stretch of load at one offered rate. Receiver-owned
// fields are read by the caller only after the phase has drained.
type phase struct {
	t0, dur  int64
	interval float64 // ns between intended sends on this connection
	win      int64   // window length for per-window medians

	// sender-owned
	attempted int64
	lag       hist
	k         int64 // data requests sent so far
	nextPing  int64
	lost      int64 // set by drain
	// receiver-owned
	t        tally
	get, mut hist
	mutRTT   hist // mutations, from actual send
	wins     []winStats
	ping     hist
	reads    int64
	resps    int64
	spans    []reqSpan
}

func (ph *phase) winOf(due int64) int { return min(int((due-ph.t0)/ph.win), len(ph.wins)-1) }

// connGen is one connection's open-loop load generator: a sender
// writing requests on schedule and a receiver checking responses.
type connGen struct {
	part  int
	c     net.Conn
	m     *model
	ops   *opStream
	clock func() int64

	slots []slot
	wbuf  []byte
	batch []*slot
	seq   uint32 // sender: next request ID
	sent  int64  // sender: requests written, pings included
	done  atomic.Int64

	// trace knobs (set before the phase): sample every traceEvery-th
	// request's spans; send a ping every pingEvery data requests. The
	// receiver reads traceEvery too, hence atomic.
	traceEvery atomic.Uint32
	pingEvery  int64

	// stallAfter/stallFor inject a generator stall (self-tests only).
	stallAfter int64
	stallFor   time.Duration

	cur      atomic.Pointer[phase]
	rnow     int64 // receiver: time the current read returned
	rerr     error
	recvDone chan struct{}
	corrupt  atomic.Int64 // undecodable or unmatched responses
	emitFn   func([]byte) error
}

func newConnGen(part int, c net.Conn, m *model, ops *opStream, clock func() int64) *connGen {
	d := &connGen{part: part, c: c, m: m, ops: ops, clock: clock,
		slots: make([]slot, ringSize), recvDone: make(chan struct{})}
	d.emitFn = d.emit
	go d.receive()
	return d
}

func (d *connGen) receive() {
	defer close(d.recvDone)
	buf := make([]byte, 64<<10)
	var fr kvsvc.FrameReader
	for {
		n, err := d.c.Read(buf)
		if n > 0 {
			d.rnow = d.clock()
			if ph := d.curPhase(); ph != nil {
				ph.reads++
			}
			if ferr := fr.Feed(buf[:n], d.emitFn); ferr != nil {
				d.corrupt.Add(1)
				d.rerr = ferr
				d.c.Close()
				return
			}
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				d.rerr = err
			}
			return
		}
	}
}

// curPhase is the phase the receiver attributes reads to.
func (d *connGen) curPhase() *phase { return d.cur.Load() }

func (d *connGen) emit(p []byte) error {
	var frE int64
	tracing := d.traceEvery.Load() != 0
	if tracing {
		frE = d.clock()
	}
	resp, err := kvsvc.DecodeResponse(p)
	if err != nil {
		return err
	}
	var decE int64
	if tracing {
		decE = d.clock()
	}
	sl := &d.slots[resp.ID&ringMask]
	if sl.state.Load() != 1 || sl.id != resp.ID {
		d.corrupt.Add(1)
		return nil
	}
	ph := sl.ph
	ph.resps++
	if sl.op == opPing {
		ph.ping.add(d.rnow - sl.sent)
	} else {
		v := d.m.judge(sl.op, int(sl.j), sl.e, resp.Status, resp.Val)
		ph.t.add(v, resp.Status)
		if v == vCorrupt {
			d.corrupt.Add(1)
		}
		if v != vFailed {
			lat := d.rnow - sl.due
			w := &ph.wins[ph.winOf(sl.due)]
			if sl.op == opGet {
				ph.get.add(lat)
				w.get.add(lat)
			} else {
				ph.mut.add(lat)
				w.mut.add(lat)
				ph.mutRTT.add(d.rnow - sl.sent)
			}
		}
		if sl.traced {
			ph.spans = append(ph.spans, reqSpan{
				id: resp.ID, part: d.part,
				due: sl.due, encS: sl.encS, encE: sl.encE, wrS: sl.sent, wrE: sl.wrE,
				rdE: d.rnow, frE: frE, decE: decE, chkE: d.clock(),
			})
		}
	}
	sl.state.Store(0)
	d.done.Add(1)
	return nil
}

// lowSlack lowers the calling (locked) thread's timer slack so that
// nanosleep wakes within a few microseconds of the tick.
func lowSlack() {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// pace runs one phase on every connection from a single sender thread:
// each wake-up sends whatever has come due on each connection, then the
// thread naps for a tick. One sender thread instead of one per
// connection leaves more of the two cores to the server and the
// receivers. The caller then drains each generator.
func pace(ds []*connGen, phs []*phase) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	lowSlack()
	var end int64
	for i, d := range ds {
		d.cur.Store(phs[i])
		end = max(end, phs[i].t0+phs[i].dur)
	}
	clock := ds[0].clock
	for {
		now := clock()
		if now >= end {
			return nil
		}
		busy := false
		for i, d := range ds {
			if now >= phs[i].t0+phs[i].dur {
				continue
			}
			n, err := d.step(phs[i], now)
			if err != nil {
				return err
			}
			busy = busy || n > 0
		}
		if !busy {
			nap(tick)
		}
	}
}

// step sends the requests of ph that are due by now, up to the
// in-flight cap, in one write, and returns how many it sent.
func (d *connGen) step(ph *phase, now int64) (int, error) {
	if d.stallAfter > 0 && ph.k >= d.stallAfter {
		d.stallAfter = 0
		time.Sleep(d.stallFor)
		return 0, nil
	}
	due := int64(float64(now-ph.t0)/ph.interval) + 1
	n := min(due-ph.k, maxBatch, inflightCap-(d.sent-d.done.Load()))
	if n <= 0 {
		return 0, nil
	}
	buf := d.wbuf[:0]
	batch := d.batch[:0]
	for i := int64(0); i < n; i++ {
		sl := &d.slots[d.seq&ringMask]
		if sl.state.Load() != 0 {
			break // ring full: backlog, shows up as lag
		}
		sl.id = d.seq
		sl.ph = ph
		sl.traced = false
		op, j := d.ops.next()
		sl.op, sl.j = op, int32(j)
		sl.due = ph.t0 + int64(float64(ph.k)*ph.interval)
		var val uint64
		val, sl.e = d.m.apply(op, j)
		req := kvsvc.Request{Op: op, ID: d.seq, Key: d.m.key(j), Val: val}
		if te := d.traceEvery.Load(); te != 0 && d.seq%te == 0 {
			sl.traced = true
			sl.encS = d.clock()
			buf = kvsvc.AppendRequest(buf, req)
			sl.encE = d.clock()
		} else {
			buf = kvsvc.AppendRequest(buf, req)
		}
		ph.k++
		ph.attempted++
		batch = append(batch, sl)
		d.seq++
	}
	if len(batch) == 0 {
		return 0, nil
	}
	if d.pingEvery > 0 && ph.k >= ph.nextPing {
		if sl := &d.slots[d.seq&ringMask]; sl.state.Load() == 0 {
			ph.nextPing = ph.k + d.pingEvery
			sl.id, sl.ph, sl.op, sl.traced = d.seq, ph, opPing, false
			buf = kvsvc.AppendRequest(buf, kvsvc.Request{Op: opPing, ID: d.seq})
			batch = append(batch, sl)
			d.seq++
		}
	}
	ws := d.clock()
	for _, sl := range batch {
		sl.sent = ws
		if sl.op != opPing {
			ph.lag.add(ws - sl.due)
			ph.wins[ph.winOf(sl.due)].lag.add(ws - sl.due)
		}
		sl.state.Store(1)
	}
	d.sent += int64(len(batch))
	d.wbuf, d.batch = buf, batch
	d.c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := d.c.Write(buf); err != nil {
		return 0, fmt.Errorf("conn %d write: %w", d.part, err)
	}
	if d.traceEvery.Load() != 0 {
		we := d.clock()
		for _, sl := range batch {
			sl.wrE = we
		}
	}
	return len(batch), nil
}

// drain waits until every request sent has been answered. Requests
// still unanswered after the timeout are lost: they count as failed and
// end the run, because their slots can no longer be reused safely.
func (d *connGen) drain(ph *phase, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for d.done.Load() < d.sent {
		if time.Now().After(deadline) {
			lost := d.sent - d.done.Load()
			ph.lost += lost
			return fmt.Errorf("conn %d: %d requests unanswered after %v (%d unmatched responses)", d.part, lost, timeout, d.corrupt.Load())
		}
		select {
		case <-d.recvDone:
			lost := d.sent - d.done.Load()
			ph.lost += lost
			return fmt.Errorf("conn %d: connection closed with %d requests unanswered: %v", d.part, lost, d.rerr)
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}
