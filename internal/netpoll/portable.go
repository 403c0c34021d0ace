package netpoll

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The portable backend keeps the netpoll API on plain net.Conn
// goroutines: one reader + one writer per conn, with idle and
// write-stall deadlines expressed through SetReadDeadline /
// SetWriteDeadline. It exists so non-Linux builds (and the test matrix
// on any platform) exercise the exact same handler contract the epoll
// backend provides. "Poller" identity is virtual: conns are assigned
// round-robin to Config.Pollers execution lanes, and OnData holds that
// lane's mutex — the same serialization (and the same happens-before
// for per-poller resources) a real poller goroutine would give.
type portPoll struct {
	cfg    Config
	execMu []sync.Mutex
	counts []atomic.Int64
	next   atomic.Uint64
	closed atomic.Bool

	mu    sync.Mutex
	conns map[*portConn]struct{}
	wg    sync.WaitGroup
}

func newPortable(cfg Config) (Poll, error) {
	return &portPoll{
		cfg:    cfg,
		execMu: make([]sync.Mutex, cfg.Pollers),
		counts: make([]atomic.Int64, cfg.Pollers),
		conns:  make(map[*portConn]struct{}),
	}, nil
}

func (p *portPoll) Kind() string { return "portable" }

func (p *portPoll) ConnCounts() []int {
	out := make([]int, len(p.counts))
	for i := range p.counts {
		out[i] = int(p.counts[i].Load())
	}
	return out
}

func (p *portPoll) Register(nc net.Conn, h Handler) (Conn, error) {
	if p.closed.Load() {
		nc.Close()
		return nil, ErrPollClosed
	}
	lane := int(p.next.Add(1) % uint64(len(p.execMu)))
	c := &portConn{p: p, nc: nc, lane: lane, h: h, wake: make(chan struct{}, 1)}
	h.OnRegister(c)
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	p.counts[lane].Add(1)
	p.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

func (p *portPoll) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	p.mu.Lock()
	all := make([]*portConn, 0, len(p.conns))
	for c := range p.conns {
		all = append(all, c)
	}
	p.mu.Unlock()
	for _, c := range all {
		c.Close(ErrPollClosed)
	}
	p.wg.Wait()
	return nil
}

type portConn struct {
	p    *portPoll
	nc   net.Conn
	lane int
	h    Handler
	wake chan struct{} // capacity 1: write-pending / close poke
	wbuf []byte        // writer-owned copy of the bytes being written

	mu     sync.Mutex
	out    outbuf
	closed bool

	closeOnce sync.Once
}

func (c *portConn) Poller() int { return c.lane }

func (c *portConn) Buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.buffered()
}

func (c *portConn) Outq() (int, bool) { return sockOutq(c.nc) }

func (c *portConn) WriteMsg(p []byte, tag uint8) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.out.push(p, tag)
	c.mu.Unlock()
	c.poke()
	return nil
}

func (c *portConn) poke() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *portConn) Close(reason error) {
	c.closeOnce.Do(func() {
		if reason == nil {
			reason = ErrClosed
		}
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.p.mu.Lock()
		delete(c.p.conns, c)
		c.p.mu.Unlock()
		c.p.counts[c.lane].Add(-1)
		// OnClose before nc.Close so Outq still reads the socket.
		c.h.OnClose(c, reason)
		c.nc.Close()
		c.poke() // release the writer if it is parked on wake
	})
}

func (c *portConn) readLoop() {
	defer c.p.wg.Done()
	chunk := c.p.cfg.ReadChunk
	if chunk > 16<<10 {
		chunk = 16 << 10 // per-conn here, not per-poller: keep it modest
	}
	buf := make([]byte, chunk)
	for {
		if it := c.p.cfg.IdleTimeout; it > 0 {
			c.nc.SetReadDeadline(time.Now().Add(it))
		}
		n, err := c.nc.Read(buf)
		if n > 0 {
			mu := &c.p.execMu[c.lane]
			mu.Lock()
			herr := c.h.OnData(c, buf[:n])
			mu.Unlock()
			if herr != nil {
				c.Close(herr)
				return
			}
		}
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = ErrIdleTimeout
			}
			c.Close(err)
			return
		}
	}
}

func (c *portConn) writeLoop() {
	defer c.p.wg.Done()
	for {
		<-c.wake
		if c.drain() {
			return
		}
	}
}

// drain writes buffered bytes until empty, reporting true when the conn
// is done for good (closed or broken). Only the writer goroutine calls
// net.Conn.Write, so message bytes stay contiguous on the wire.
func (c *portConn) drain() (done bool) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return true
		}
		// Copy the pending bytes out under the lock: a concurrent push
		// may compact the store in place and append over the region a
		// Write would still be reading. advance below accounts by byte
		// count, so the copy is all the writer needs.
		c.wbuf = append(c.wbuf[:0], c.out.pending()...)
		pend := c.wbuf
		if len(pend) == 0 {
			c.mu.Unlock()
			if cap(c.wbuf) > 16<<10 {
				c.wbuf = nil // as outbuf: a one-off burst must not pin memory
			}
			return false
		}
		c.mu.Unlock()
		if wt := c.p.cfg.WriteStallTimeout; wt > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(wt))
		}
		n, err := c.nc.Write(pend)
		if n > 0 {
			c.mu.Lock()
			tags := c.out.advance(n, nil)
			c.mu.Unlock()
			if len(tags) > 0 {
				c.h.OnFlushed(c, tags)
			}
		}
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = ErrWriteStall
			}
			c.Close(err)
			return true
		}
	}
}
