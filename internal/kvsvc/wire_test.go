package kvsvc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, ID: 1, Key: 42},
		{Op: OpPut, ID: 0xFFFFFFFF, Key: 1<<64 - 1, Val: 7},
		{Op: OpDel, ID: 0, Key: 0},
		{Op: OpPing, ID: 12345},
	}
	var stream []byte
	for _, r := range reqs {
		stream = AppendRequest(stream, r)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range reqs {
		var err error
		buf, err = ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Status: StatusOK, Val: 99},
		{ID: 2, Status: StatusNotFound},
		{ID: 3, Status: StatusErr, Val: 1<<64 - 1},
		{ID: 4, Status: StatusOverloaded},
	}
	var stream []byte
	for _, r := range resps {
		stream = AppendResponse(stream, r)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range resps {
		var err error
		buf, err = ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

// frameWith builds a raw frame with an arbitrary declared length and body.
func frameWith(declared uint32, body []byte) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, declared)
	return append(b, body...)
}

func TestReadFrameRejectsMalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"oversized declared length", frameWith(MaxFrame+1, nil), ErrFrameTooLarge},
		{"huge declared length", frameWith(0xFFFFFFFF, nil), ErrFrameTooLarge},
		{"zero-length frame", frameWith(0, nil), ErrBadLength},
		{"truncated header", []byte{0x00, 0x01}, ErrTruncated},
		{"truncated payload", frameWith(reqLen, make([]byte, 5)), ErrTruncated},
		{"payload one byte short", frameWith(reqLen, make([]byte, reqLen-1)), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(tc.input))
			_, err := ReadFrame(br, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame(%x) err = %v, want %v", tc.input, err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsGarbagePayloads(t *testing.T) {
	goodReq := make([]byte, reqLen)
	goodReq[0] = byte(OpGet)

	badOp := make([]byte, reqLen)
	badOp[0] = 0 // below OpGet
	badOp2 := make([]byte, reqLen)
	badOp2[0] = byte(OpPing) + 1

	badStatus := make([]byte, respLen)
	badStatus[4] = StatusOverloaded + 1

	t.Run("request short", func(t *testing.T) {
		if _, err := DecodeRequest(goodReq[:reqLen-1]); !errors.Is(err, ErrBadLength) {
			t.Fatalf("err = %v, want ErrBadLength", err)
		}
	})
	t.Run("request long", func(t *testing.T) {
		if _, err := DecodeRequest(append(goodReq, 0)); !errors.Is(err, ErrBadLength) {
			t.Fatalf("err = %v, want ErrBadLength", err)
		}
	})
	t.Run("request empty", func(t *testing.T) {
		if _, err := DecodeRequest(nil); !errors.Is(err, ErrBadLength) {
			t.Fatalf("err = %v, want ErrBadLength", err)
		}
	})
	t.Run("request op zero", func(t *testing.T) {
		if _, err := DecodeRequest(badOp); !errors.Is(err, ErrBadOp) {
			t.Fatalf("err = %v, want ErrBadOp", err)
		}
	})
	t.Run("request op past ping", func(t *testing.T) {
		if _, err := DecodeRequest(badOp2); !errors.Is(err, ErrBadOp) {
			t.Fatalf("err = %v, want ErrBadOp", err)
		}
	})
	t.Run("response short", func(t *testing.T) {
		if _, err := DecodeResponse(make([]byte, respLen-1)); !errors.Is(err, ErrBadLength) {
			t.Fatalf("err = %v, want ErrBadLength", err)
		}
	})
	t.Run("response bad status", func(t *testing.T) {
		if _, err := DecodeResponse(badStatus); !errors.Is(err, ErrBadStatus) {
			t.Fatalf("err = %v, want ErrBadStatus", err)
		}
	})
}

// oneShotDecode runs the blocking ReadFrame decoder over a complete
// byte stream: the reference behavior FrameReader must match. A clean
// EOF at a frame boundary is (nil, false); a close mid-frame maps to
// truncated=true; malformed headers surface their typed error.
func oneShotDecode(data []byte) (payloads [][]byte, err error, truncated bool) {
	br := bufio.NewReader(bytes.NewReader(data))
	var buf []byte
	for {
		var e error
		buf, e = ReadFrame(br, buf)
		if e != nil {
			if e == io.EOF {
				return payloads, nil, false
			}
			if errors.Is(e, ErrTruncated) {
				return payloads, nil, true
			}
			return payloads, e, false
		}
		payloads = append(payloads, append([]byte(nil), buf...))
	}
}

// feedDecode runs FrameReader over the same stream delivered as chunks.
func feedDecode(chunks [][]byte) (payloads [][]byte, err error, truncated bool) {
	var fr FrameReader
	for _, ch := range chunks {
		if e := fr.Feed(ch, func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		}); e != nil {
			return payloads, e, false
		}
	}
	return payloads, nil, fr.Buffered() > 0
}

// classifyDecode collapses a decode outcome to a comparable label.
func classifyDecode(err error, truncated bool) string {
	switch {
	case err == nil && !truncated:
		return "clean"
	case err == nil:
		return "truncated"
	case errors.Is(err, ErrFrameTooLarge):
		return "toolarge"
	case errors.Is(err, ErrBadLength):
		return "badlength"
	default:
		return "other: " + err.Error()
	}
}

// assertFeedMatchesOneShot checks a chunking of data decodes identically
// to the one-shot reference.
func assertFeedMatchesOneShot(t *testing.T, data []byte, chunks [][]byte, label string) {
	t.Helper()
	wantP, wantErr, wantTrunc := oneShotDecode(data)
	gotP, gotErr, gotTrunc := feedDecode(chunks)
	if want, got := classifyDecode(wantErr, wantTrunc), classifyDecode(gotErr, gotTrunc); want != got {
		t.Fatalf("%s: outcome = %s, one-shot = %s", label, got, want)
	}
	if len(gotP) != len(wantP) {
		t.Fatalf("%s: decoded %d frames, one-shot decoded %d", label, len(gotP), len(wantP))
	}
	for i := range wantP {
		if !bytes.Equal(gotP[i], wantP[i]) {
			t.Fatalf("%s: frame %d = %x, one-shot %x", label, i, gotP[i], wantP[i])
		}
	}
}

// splitAll exercises every 2-chunk split of data plus byte-at-a-time
// delivery against the one-shot reference.
func splitAll(t *testing.T, data []byte) {
	t.Helper()
	for i := 0; i <= len(data); i++ {
		assertFeedMatchesOneShot(t, data, [][]byte{data[:i], data[i:]},
			fmt.Sprintf("split at byte %d", i))
	}
	var bytewise [][]byte
	for i := range data {
		bytewise = append(bytewise, data[i:i+1])
	}
	assertFeedMatchesOneShot(t, data, bytewise, "byte-at-a-time")
}

// TestFrameReaderSplitEquivalence: every valid frame split at all byte
// boundaries across multiple Feed calls decodes identically to one-shot
// ReadFrame — the partial-frame contract the poller read path relies on.
func TestFrameReaderSplitEquivalence(t *testing.T) {
	var stream []byte
	stream = AppendRequest(stream, Request{Op: OpGet, ID: 1, Key: 42})
	stream = AppendRequest(stream, Request{Op: OpPut, ID: 0xFFFFFFFF, Key: 1<<64 - 1, Val: 7})
	stream = AppendResponse(stream, Response{ID: 3, Status: StatusOverloaded})
	stream = AppendRequest(stream, Request{Op: OpPing, ID: 4})
	t.Run("clean stream", func(t *testing.T) { splitAll(t, stream) })
	t.Run("mid-frame tail", func(t *testing.T) {
		splitAll(t, append(append([]byte(nil), stream...), frameWith(reqLen, make([]byte, 5))...))
	})
	t.Run("header-only tail", func(t *testing.T) {
		splitAll(t, append(append([]byte(nil), stream...), 0x00, 0x00))
	})
}

// TestFrameReaderMalformedSplits: the malformed-frame table, each case
// preceded by a valid frame, split at every byte boundary — the typed
// error (and every frame decoded before it) must match one-shot.
func TestFrameReaderMalformedSplits(t *testing.T) {
	valid := AppendRequest(nil, Request{Op: OpDel, ID: 9, Key: 17})
	cases := []struct {
		name  string
		input []byte
	}{
		{"oversized declared length", frameWith(MaxFrame+1, nil)},
		{"huge declared length", frameWith(0xFFFFFFFF, nil)},
		{"zero-length frame", frameWith(0, nil)},
		{"truncated header", []byte{0x00, 0x01}},
		{"truncated payload", frameWith(reqLen, make([]byte, 5))},
		{"payload one byte short", frameWith(reqLen, make([]byte, reqLen-1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			splitAll(t, tc.input)
		})
		t.Run("valid then "+tc.name, func(t *testing.T) {
			splitAll(t, append(append([]byte(nil), valid...), tc.input...))
		})
	}
}

// TestFrameReaderEmitError: an error from emit aborts Feed and comes
// back verbatim (the server uses this to reject garbage payloads).
func TestFrameReaderEmitError(t *testing.T) {
	stream := AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: 2})
	stream = AppendRequest(stream, Request{Op: OpGet, ID: 2, Key: 3})
	sentinel := errors.New("handler says no")
	var fr FrameReader
	calls := 0
	err := fr.Feed(stream, func(p []byte) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Feed err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error, want 1", calls)
	}
}

// TestReadFrameReusesBuffer checks the zero-alloc steady state: a large
// enough buffer passed back in is reused, not reallocated.
func TestReadFrameReusesBuffer(t *testing.T) {
	stream := AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: 2})
	stream = AppendRequest(stream, Request{Op: OpDel, ID: 2, Key: 3})
	br := bufio.NewReader(bytes.NewReader(stream))
	buf := make([]byte, 0, 64)
	first, err := ReadFrame(br, buf)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadFrame(br, first)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Fatal("ReadFrame reallocated despite sufficient capacity")
	}
}

// TestReadFrameZeroAllocs pins ReadFrame's steady state at zero
// allocations per frame: the header lands in the caller's buffer, not in
// a local array that escapes through io.ReadFull.
func TestReadFrameZeroAllocs(t *testing.T) {
	stream := AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: 2})
	r := bytes.NewReader(stream)
	br := bufio.NewReader(r)
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Reset(stream)
		br.Reset(r)
		var err error
		if buf, err = ReadFrame(br, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame allocates %.2f times per frame, want 0", allocs)
	}
}
