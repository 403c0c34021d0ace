// Wire protocol for gosmrd: length-prefixed binary frames over TCP.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload. Requests and responses are fixed-size, so the codec is a
// handful of loads and stores and the only dynamic decision is the
// length check. Clients pipeline freely: requests carry a client-chosen
// ID and responses echo it. The server executes one connection's
// requests in the order they were sent; on the netpoll layer a ping or
// a StatusOverloaded shed is the only response that may be written
// ahead of earlier ones (see OpPing).
//
//	request  payload: op(1) id(4) key(8) val(8)   = 21 bytes
//	response payload: id(4) status(1) val(8)      = 13 bytes
//
// Decoding never panics on hostile input: every malformed frame maps to
// one of the typed errors below, and the server answers by closing the
// connection (a garbage length prefix poisons the rest of the byte
// stream, so per-request error responses would be meaningless).
package kvsvc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcodes.
//
// The OpPing contract: a ping is a liveness probe, not a data request.
// It touches no shard and answers StatusOK with Val echoing the
// request's Val. On the goroutine layer it is answered in order like
// any request. On the netpoll layer it skips the in-flight budget, so a
// ping succeeds even when data requests are being shed
// StatusOverloaded — a client at budget can still distinguish "server
// alive but saturated" from "server gone" — and, like a shed, its
// response may overtake earlier data responses still waiting for
// budget. The one case a ping is dropped (no response at all) is a
// netpoll connection whose peer has stopped reading past its
// uncredited headroom; the write-stall eviction is about to close it
// anyway.
const (
	OpGet uint8 = 1 + iota
	OpPut
	OpDel
	OpPing
)

// Response statuses.
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusErr
	// StatusOverloaded is the shed signal: the server refused to execute
	// the request because the connection exceeded its in-flight budget
	// (netpoll layer). The request had no effect; clients should retry
	// with backoff.
	StatusOverloaded
)

// MaxFrame is the largest accepted payload length. Both message kinds
// are tiny and fixed-size; the cap exists so a garbage length prefix
// cannot make the reader allocate or block for gigabytes.
const MaxFrame = 1 << 10

const (
	reqLen  = 21
	respLen = 13
	hdrLen  = 4
)

// Typed wire errors. ReadFrame and the Decode functions return exactly
// these (possibly wrapped with detail); the server treats any of them as
// a fatal connection error.
var (
	// ErrFrameTooLarge: the length prefix exceeds MaxFrame.
	ErrFrameTooLarge = errors.New("kvsvc: frame length exceeds MaxFrame")
	// ErrBadLength: the payload length does not match the fixed message
	// size (including zero-length frames).
	ErrBadLength = errors.New("kvsvc: frame length does not match message size")
	// ErrBadOp: unknown request opcode.
	ErrBadOp = errors.New("kvsvc: unknown opcode")
	// ErrBadStatus: unknown response status.
	ErrBadStatus = errors.New("kvsvc: unknown status")
	// ErrTruncated: the peer closed the connection mid-frame.
	ErrTruncated = errors.New("kvsvc: truncated frame")
)

// Request is one client→server message.
type Request struct {
	Op  uint8
	ID  uint32
	Key uint64
	Val uint64
}

// Response is one server→client message.
type Response struct {
	ID     uint32
	Status uint8
	Val    uint64
}

// AppendRequest appends r as a framed message to dst.
func AppendRequest(dst []byte, r Request) []byte {
	dst = binary.BigEndian.AppendUint32(dst, reqLen)
	dst = append(dst, r.Op)
	dst = binary.BigEndian.AppendUint32(dst, r.ID)
	dst = binary.BigEndian.AppendUint64(dst, r.Key)
	dst = binary.BigEndian.AppendUint64(dst, r.Val)
	return dst
}

// DecodeRequest decodes a request payload (the frame body, without the
// length prefix).
func DecodeRequest(p []byte) (Request, error) {
	if len(p) != reqLen {
		return Request{}, fmt.Errorf("%w: request payload is %d bytes, want %d", ErrBadLength, len(p), reqLen)
	}
	r := Request{
		Op:  p[0],
		ID:  binary.BigEndian.Uint32(p[1:5]),
		Key: binary.BigEndian.Uint64(p[5:13]),
		Val: binary.BigEndian.Uint64(p[13:21]),
	}
	if r.Op < OpGet || r.Op > OpPing {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOp, r.Op)
	}
	return r, nil
}

// AppendResponse appends r as a framed message to dst.
func AppendResponse(dst []byte, r Response) []byte {
	dst = binary.BigEndian.AppendUint32(dst, respLen)
	dst = binary.BigEndian.AppendUint32(dst, r.ID)
	dst = append(dst, r.Status)
	dst = binary.BigEndian.AppendUint64(dst, r.Val)
	return dst
}

// DecodeResponse decodes a response payload.
func DecodeResponse(p []byte) (Response, error) {
	if len(p) != respLen {
		return Response{}, fmt.Errorf("%w: response payload is %d bytes, want %d", ErrBadLength, len(p), respLen)
	}
	r := Response{
		ID:     binary.BigEndian.Uint32(p[0:4]),
		Status: p[4],
		Val:    binary.BigEndian.Uint64(p[5:13]),
	}
	if r.Status > StatusOverloaded {
		return Response{}, fmt.Errorf("%w: %d", ErrBadStatus, r.Status)
	}
	return r, nil
}

// FrameReader incrementally decodes length-prefixed frames from a byte
// stream delivered in arbitrary chunks — the netpoll read path, where
// each poller wake-up hands over whatever the kernel had and a frame
// may be split at any byte boundary across wake-ups. Feed consumes one
// chunk and invokes emit once per complete frame payload, in order; an
// incomplete tail is buffered (bounded by hdrLen+MaxFrame plus the
// chunk that completed it) until later chunks finish the frame. The
// result is byte-for-byte identical to running ReadFrame over the
// concatenated stream: same payloads, same typed errors at the same
// positions.
//
// The payload slice passed to emit is only valid during the call. A
// zero FrameReader is ready to use. After Feed returns an error —
// either a malformed header (ErrFrameTooLarge, ErrBadLength) or an
// error from emit — the stream is poisoned and the reader must not be
// fed again; the server closes the connection, exactly as it does for
// the same errors from ReadFrame.
type FrameReader struct {
	pend []byte
}

// Feed consumes one chunk of the byte stream.
func (fr *FrameReader) Feed(p []byte, emit func(payload []byte) error) error {
	buf := p
	owned := false // buf aliases fr.pend, not the caller's chunk
	if len(fr.pend) > 0 {
		fr.pend = append(fr.pend, p...)
		buf = fr.pend
		owned = true
	}
	for len(buf) >= hdrLen {
		n := binary.BigEndian.Uint32(buf)
		if n > MaxFrame {
			return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, MaxFrame)
		}
		if n == 0 {
			return fmt.Errorf("%w: zero-length frame", ErrBadLength)
		}
		end := hdrLen + int(n)
		if len(buf) < end {
			break
		}
		if err := emit(buf[hdrLen:end:end]); err != nil {
			return err
		}
		buf = buf[end:]
	}
	switch {
	case len(buf) == 0:
		fr.pend = fr.pend[:0]
		if cap(fr.pend) > 4<<10 {
			// A large burst grew the carry buffer; don't let a now-idle
			// conn pin it.
			fr.pend = nil
		}
	case owned:
		// Slide the incomplete tail to the front of its own buffer
		// (overlapping copy is fine).
		fr.pend = fr.pend[:copy(fr.pend, buf)]
	default:
		fr.pend = append(fr.pend[:0], buf...)
	}
	return nil
}

// Buffered reports bytes held for an incomplete frame. Nonzero at
// connection close means the peer hung up mid-frame (the FrameReader
// analogue of ReadFrame's ErrTruncated).
func (fr *FrameReader) Buffered() int { return len(fr.pend) }

// ReadFrame reads one length-prefixed payload from br into buf (which is
// grown as needed and returned re-sliced). A clean close at a frame
// boundary returns io.EOF; a close inside a frame returns ErrTruncated;
// an oversized or zero length prefix returns ErrFrameTooLarge or
// ErrBadLength without consuming the payload. Transport errors stay
// inspectable through the wrap: errors.Is(err, os.ErrDeadlineExceeded)
// distinguishes a read-deadline expiry from a torn stream, which is how
// the server attributes idle-timeout evictions.
//
// The header is read into buf too: a local array would escape through
// io.ReadFull's interface argument and cost an allocation per frame.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < hdrLen {
		buf = make([]byte, 0, 64) // room for either message kind
	}
	hdr := buf[:hdrLen]
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, MaxFrame)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrBadLength)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return buf, nil
}
