// Netpoll-mode serving: the event-driven connection layer.
//
// In goroutine mode every connection costs a goroutine plus a bufio
// read buffer. In netpoll mode (ServerConfig.Netpoll) a fixed set of
// poller goroutines owns readiness for every connection: OnData feeds
// an incremental FrameReader, and each decoded frame runs to completion
// on the poller — ping lane, credit gate, then execute on the poller's
// handle set — with its response leaving through the conn's nonblocking
// outbound buffer. Per-connection state shrinks to an npConn (a few
// words plus a lazily-grown decode carry), which is what makes 100k
// mostly-idle conns cost megabytes instead of gigabytes.
//
// Contract deltas vs serveConn (see DESIGN.md "Event-driven connection
// layer"): (1) WriteMsg never blocks, so a conn that stops reading would
// grow its outbound buffer without bound; the ConnBudget credit gate
// caps it at (2B messages) × 17 bytes, with credits released by
// OnFlushed once a response's bytes have fully reached the kernel. (2)
// Requests execute on per-POLLER handle sets (pollerHandles), not
// per-conn ones, so the registry holds O(pollers × shards) handles no
// matter how many conns are parked — the idle-fleet twin of the paper's
// bounded-garbage guarantee.
package kvsvc

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"github.com/gosmr/gosmr/internal/netpoll"
)

// Outbound message tags (netpoll.Conn.WriteMsg → Handler.OnFlushed):
// which budget lane the flushed response releases.
const (
	tagUncredited uint8 = iota
	tagCredited
)

// errServerDraining closes conns at shutdown; it is neither an idle nor
// a slow-reader eviction, so OnClose counts nothing for it.
var errServerDraining = errors.New("kvsvc: server draining")

// npConn is one netpoll-mode connection: the Handler plus the protocol
// state serveConn used to keep on its goroutine's stack.
type npConn struct {
	s *Server
	c netpoll.Conn

	fr FrameReader // incremental decode state; poller-owned

	// credits is the in-flight budget: decremented by dispatch (only on
	// the conn's poller), incremented by OnFlushed when a
	// credited response has fully reached the kernel.
	credits atomic.Int64
	// uncredited bounds the shed/ping lane at ConnBudget messages.
	uncredited atomic.Int64
}

// OnRegister runs inside Poll.Register: bind the Conn and make the
// handler visible to drain before any event can fire.
func (nc *npConn) OnRegister(c netpoll.Conn) {
	nc.c = c
	s := nc.s
	s.npMu.Lock()
	s.npConns[nc] = struct{}{}
	s.npMu.Unlock()
}

// OnData feeds raw bytes to the frame reader; complete frames dispatch
// inline on the poller. Any error (malformed frame, garbage payload)
// closes the connection, matching serveConn's treatment of a poisoned
// byte stream.
func (nc *npConn) OnData(_ netpoll.Conn, p []byte) error {
	return nc.fr.Feed(p, nc.dispatch)
}

// dispatch runs one frame to completion on the poller callback.
func (nc *npConn) dispatch(payload []byte) error {
	s := nc.s
	req, err := DecodeRequest(payload)
	if err != nil {
		return err
	}
	budget := int64(s.cfg.ConnBudget)

	if req.Op == OpPing {
		// Pings ride the uncredited lane and never consume budget: a
		// keepalive must not compete with data responses for credits, or
		// a saturated-but-healthy connection would read StatusOverloaded
		// for its liveness probe (see the OpPing contract in wire.go). If
		// even this lane is full the peer is not reading and the ping is
		// dropped, counted.
		if nc.uncredited.Load() < budget {
			nc.uncredited.Add(1)
			s.served.Add(1)
			nc.send(s.execute(nil, req), false)
		} else {
			s.shedDropped.Add(1)
		}
		return nil
	}

	// Only this poller takes credits, so the check-then-take cannot race
	// below zero; OnFlushed returns them from any goroutine.
	if nc.credits.Load() <= 0 {
		s.shedBudget.Add(1)
		if nc.uncredited.Load() < budget {
			nc.uncredited.Add(1)
			nc.send(Response{ID: req.ID, Status: StatusOverloaded}, false)
		} else {
			s.shedDropped.Add(1)
		}
		return nil
	}
	nc.credits.Add(-1)

	// The handle set belongs to the POLLER: OnData serialization makes it
	// single-owner, and a parked conn pins no handle.
	resp := s.execute(s.pollerHandles[nc.c.Poller()], req)
	s.served.Add(1)
	if req.Op == OpGet {
		s.gets.Add(1)
	}
	nc.send(resp, true)
	return nil
}

// send buffers one response on the conn. Never blocks: WriteMsg pushes
// what the kernel takes and keeps the rest in the outbound buffer,
// which the two B-bounded lanes cap at 2B messages. A closed conn eats
// the response — its requester is gone.
func (nc *npConn) send(resp Response, credited bool) {
	var b [hdrLen + respLen]byte
	tag := tagUncredited
	if credited {
		tag = tagCredited
	}
	nc.c.WriteMsg(AppendResponse(b[:0], resp), tag) //nolint:errcheck // ErrClosed only
}

// OnFlushed releases budget lanes for responses whose bytes have fully
// reached the kernel. May run on any goroutine; atomics only.
func (nc *npConn) OnFlushed(_ netpoll.Conn, tags []uint8) {
	for _, t := range tags {
		if t == tagCredited {
			nc.credits.Add(1)
		} else {
			nc.uncredited.Add(-1)
		}
	}
}

// OnClose classifies the eviction, samples the unread backlog for slow
// readers (the socket is still open here), and unlinks the conn.
func (nc *npConn) OnClose(c netpoll.Conn, err error) {
	s := nc.s
	switch {
	case errors.Is(err, netpoll.ErrIdleTimeout):
		s.evictedIdle.Add(1)
	case errors.Is(err, netpoll.ErrWriteStall):
		q, _ := c.Outq()
		s.evictSlow(q)
	}
	s.npMu.Lock()
	delete(s.npConns, nc)
	s.npMu.Unlock()
	s.liveConns.Add(-1)
	s.npWG.Done()
}

// acceptNetpoll hands an accepted conn to the poll. The accept loop has
// already counted it in liveConns.
func (s *Server) acceptNetpoll(c net.Conn) {
	nc := &npConn{s: s}
	nc.credits.Store(int64(s.cfg.ConnBudget))
	s.npWG.Add(1)
	if _, err := s.poll.Register(c, nc); err != nil {
		// Register closed the socket; OnRegister may or may not have
		// linked the handler (delete is a no-op if not).
		s.npMu.Lock()
		delete(s.npConns, nc)
		s.npMu.Unlock()
		s.liveConns.Add(-1)
		s.npWG.Done()
	}
}

// drainNetpoll is Shutdown's netpoll branch: wait (bounded by ctx) for
// every buffered response byte to reach the kernel, then close all conns
// and join the pollers. Requests execute inside OnData, so a response is
// buffered before its poller reads the next chunk.
func (s *Server) drainNetpoll(ctx context.Context) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
waitQuiesce:
	for !s.npQuiesced() {
		select {
		case <-ctx.Done():
			break waitQuiesce
		case <-tick.C:
		}
	}
	s.npMu.Lock()
	conns := make([]*npConn, 0, len(s.npConns))
	for nc := range s.npConns {
		conns = append(conns, nc)
	}
	s.npMu.Unlock()
	for _, nc := range conns {
		nc.c.Close(errServerDraining)
	}
	s.npWG.Wait()
	s.poll.Close()
}

// npQuiesced reports whether every live conn has an empty outbound
// buffer.
func (s *Server) npQuiesced() bool {
	s.npMu.Lock()
	defer s.npMu.Unlock()
	for nc := range s.npConns {
		if nc.c.Buffered() > 0 {
			return false
		}
	}
	return true
}
