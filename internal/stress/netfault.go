// Network-layer fault injectors: misbehaving clients for the gosmrd
// service layer. The in-process injectors in inject.go attack the
// reclamation layer (parked readers, widened race windows); these attack
// the connection layer the same way real clients do — by stalling,
// trickling, or vanishing mid-frame. A server with working overload
// protection evicts or sheds all of them while healthy connections keep
// completing; a server without it lets one peer hold up other
// connections' requests or the drain.
//
// Each injector runs synchronously until the server evicts it (the
// socket errors), its own work finishes, or stop closes; callers run
// them from a goroutine next to healthy traffic.
package stress

import (
	"net"
	"time"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

// netFaultTick bounds how long an injector can sit inside one blocking
// Write before it rechecks stop.
const netFaultTick = 100 * time.Millisecond

// StalledReader connects, floods valid Put requests as fast as the
// socket accepts them, and never reads a single response byte — the
// slow-reader adversary: responses pile up in the kernel buffers until
// the server's write deadline evicts the connection. Returns the number
// of requests written and the write error that ended the flood (nil
// only when stop closed first).
func StalledReader(addr string, stop <-chan struct{}) (int, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		// Shrink the receive window so the never-read response stream
		// fills the socket buffers quickly (but keep it comfortably
		// above one loopback segment; see the kvsvc slow-reader test).
		tc.SetReadBuffer(16 << 10)
	}
	var buf []byte
	for n := 0; ; n++ {
		select {
		case <-stop:
			return n, nil
		default:
		}
		c.SetWriteDeadline(time.Now().Add(netFaultTick))
		buf = kvsvc.AppendRequest(buf[:0], kvsvc.Request{
			Op: kvsvc.OpPut, ID: uint32(n), Key: uint64(n % 512), Val: uint64(n),
		})
		if _, err := c.Write(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue // deadline tick, not an eviction — recheck stop
			}
			return n, err
		}
	}
}

// SlowlorisWriter connects and dribbles one valid frame byte-at-a-time,
// sleeping interval between bytes — the classic slowloris shape. A
// per-frame read deadline defeats it: the server's idle timeout covers
// the whole frame, not just the first byte, so the trickle cannot hold
// a connection slot (and Shutdown's connWG) open forever. Returns the
// number of bytes written and the error that ended the trickle.
func SlowlorisWriter(addr string, interval time.Duration, stop <-chan struct{}) (int, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	frame := kvsvc.AppendRequest(nil, kvsvc.Request{Op: kvsvc.OpPing, ID: 1})
	written := 0
	for {
		b := frame[written%len(frame) : written%len(frame)+1]
		c.SetWriteDeadline(time.Now().Add(netFaultTick))
		if _, err := c.Write(b); err != nil {
			return written, err
		}
		written++
		select {
		case <-stop:
			return written, nil
		case <-time.After(interval):
		}
	}
}

// MidFrameDisconnect connects, writes a frame header promising a full
// request plus only half of the payload, and hangs up. The server must
// treat the torn stream as a fatal connection error (ErrTruncated) and
// tear the connection down without disturbing its shard. Returns the
// number of bytes written before the hangup.
func MidFrameDisconnect(addr string) (int, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	frame := kvsvc.AppendRequest(nil, kvsvc.Request{Op: kvsvc.OpPut, ID: 7, Key: 7, Val: 7})
	n, err := c.Write(frame[:len(frame)/2])
	c.Close()
	return n, err
}
