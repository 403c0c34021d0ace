package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

// reqSpan holds the boundary timestamps of one sampled request (ns on
// the run clock). Every span derived from it carries the request's ID.
type reqSpan struct {
	id                                              uint32
	part                                            int
	op                                              uint8
	due, encS, encE, wrS, wrE, rdE, frE, decE, chkE int64
}

// span is one traced interval; parent is the index of the enclosing
// span or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
}

// spansOf expands a client request into its root span and one child
// per boundary the benchmark crosses. wait covers the loopback and the
// whole server (connection layer, dispatch, store) as seen from here.
func spansOf(r reqSpan, next int) []span {
	req := fmt.Sprintf("c%d-%d", r.part, r.id)
	clamp := func(t, lo int64) int64 { return max(t, lo) }
	wrE := clamp(r.wrE, r.wrS)
	rdE := clamp(r.rdE, wrE)
	root := span{Name: "request", Start: r.due, End: clamp(r.chkE, rdE), ID: next, Parent: -1, Req: req}
	kids := []struct {
		name string
		s, e int64
	}{
		{"loadgen.lag", r.due, r.encS},
		{"wire.req_encode", r.encS, r.encE},
		{"loadgen.batch", r.encE, r.wrS},
		{"conn.write", r.wrS, wrE},
		{"wait.net+server", wrE, rdE},
		{"frame.feed", rdE, clamp(r.frE, rdE)},
		{"wire.resp_decode", r.frE, r.decE},
		{"check", r.decE, r.chkE},
	}
	out := []span{root}
	for i, k := range kids {
		out = append(out, span{Name: k.name, Start: k.s, End: clamp(k.e, k.s), ID: next + 1 + i, Parent: next, Req: req})
	}
	return out
}

// storeCall holds the timestamps of one sampled in-process Store call:
// call start, call end, check end.
type storeCall struct {
	part       int
	seq        int64
	op         uint8
	t0, t1, t2 int64
}

// storeSpansOf expands one sampled Store call into its spans.
func storeSpansOf(c storeCall, next int) []span {
	req := fmt.Sprintf("g%d-%d", c.part, c.seq)
	return []span{
		{Name: "request", Start: c.t0, End: c.t2, ID: next, Parent: -1, Req: req},
		{Name: "store." + opName(c.op), Start: c.t0, End: c.t1, ID: next + 1, Parent: next, Req: req},
		{Name: "check", Start: c.t1, End: c.t2, ID: next + 2, Parent: next, Req: req},
	}
}

func opName(op uint8) string {
	switch op {
	case opGet:
		return "get"
	case opPut:
		return "put"
	case opDel:
		return "del"
	}
	return "ping"
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name   string
	count  int
	selfNs int64
}

// selfTimes computes each span name's self time: its duration minus
// the part of it covered by its children.
func selfTimes(spans []span) []selfRow {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.selfNs += self
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNs > out[j].selfNs })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans dumps spans as JSON lines, once, at the end of the run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSelfTable(w io.Writer, rows []selfRow) {
	var total int64
	for _, r := range rows {
		total += r.selfNs
	}
	fmt.Fprintf(w, "%-20s %9s %12s %7s\n", "span (self time)", "count", "mean_us", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %9d %12.3f %6.1f%%\n", r.name, r.count,
			float64(r.selfNs)/float64(r.count)/1e3, 100*float64(r.selfNs)/float64(max(total, 1)))
	}
}

// replayOut holds the in-process layer costs of one op stream.
type replayOut struct {
	reqEnc, reqDec, respEnc, respDec float64 // ns/op
	wireAllocs                       float64 // allocs per op, all four calls
	feedNs, feedAllocs               float64 // per frame
	readFrameNs, readFrameAllocs     float64 // per frame
	get, put, del                    hist
	storeNsPerOp, storeAllocs        float64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeLoop runs f reps times and returns the median ns per item and
// the allocations per item of the last repetition.
func timeLoop(reps, items int, f func()) (nsPer, allocsPer float64) {
	ts := make([]float64, reps)
	var a uint64
	for i := range ts {
		a0 := mallocs()
		t := time.Now()
		f()
		ts[i] = float64(time.Since(t).Nanoseconds()) / float64(items)
		a = mallocs() - a0
	}
	// ReadMemStats itself allocates nothing; a is the loop's own count.
	return median(ts), float64(a) / float64(items)
}

// replay times the first n requests of both partitions' op streams
// through the codec, both framing paths and kvsvc.Store handle calls,
// on a fresh store preloaded like the workload's.
func replay(sp spec, seed int64, n int) (replayOut, error) {
	var out replayOut
	ks := newKeyspace(seed)
	z := zipfFor(sp)
	type rop struct {
		op  uint8
		key uint64
		val uint64
	}
	per := make([][]rop, parts)
	for p := range per {
		m := newModel(sp, ks, p)
		st := newOpStream(sp, seed, p, z)
		for i := 0; i < n/parts; i++ {
			op, j := st.next()
			val, _ := m.apply(op, j)
			per[p] = append(per[p], rop{op, m.key(j), val})
		}
	}
	// Interleave the partitions the way two connections would arrive.
	ops := make([]rop, 0, n)
	for i := range per[0] {
		for p := range per {
			ops = append(ops, per[p][i])
		}
	}
	n = len(ops)
	reqs := make([]kvsvc.Request, n)
	resps := make([]kvsvc.Response, n)
	for i, o := range ops {
		reqs[i] = kvsvc.Request{Op: o.op, ID: uint32(i), Key: o.key, Val: o.val}
		resps[i] = kvsvc.Response{ID: uint32(i), Status: kvsvc.StatusOK, Val: o.val}
	}
	const reps = 5
	reqBuf := make([]byte, 0, n*25)
	respBuf := make([]byte, 0, n*17)
	var allocs float64
	var a float64
	out.reqEnc, a = timeLoop(reps, n, func() {
		reqBuf = reqBuf[:0]
		for _, r := range reqs {
			reqBuf = kvsvc.AppendRequest(reqBuf, r)
		}
	})
	allocs += a
	var sink uint64
	out.reqDec, a = timeLoop(reps, n, func() {
		for off := 0; off < len(reqBuf); off += 25 {
			r, _ := kvsvc.DecodeRequest(reqBuf[off+4 : off+25])
			sink += r.Key
		}
	})
	allocs += a
	out.respEnc, a = timeLoop(reps, n, func() {
		respBuf = respBuf[:0]
		for _, r := range resps {
			respBuf = kvsvc.AppendResponse(respBuf, r)
		}
	})
	allocs += a
	out.respDec, a = timeLoop(reps, n, func() {
		for off := 0; off < len(respBuf); off += 17 {
			r, _ := kvsvc.DecodeResponse(respBuf[off+4 : off+17])
			sink += r.Val
		}
	})
	out.wireAllocs = allocs + a

	// Framing: the request stream as the server reads it, in 4 KiB
	// chunks (bufio's default read size) so frames straddle chunks.
	const chunk = 4096
	frames := 0
	emit := func(p []byte) error { frames++; return nil }
	out.feedNs, out.feedAllocs = timeLoop(reps, n, func() {
		var fr kvsvc.FrameReader
		for off := 0; off < len(reqBuf); off += chunk {
			fr.Feed(reqBuf[off:min(off+chunk, len(reqBuf))], emit)
		}
	})
	if frames != reps*n {
		return out, fmt.Errorf("replay: FrameReader emitted %d frames, want %d", frames, reps*n)
	}
	var rerr error
	out.readFrameNs, out.readFrameAllocs = timeLoop(reps, n, func() {
		br := bufio.NewReaderSize(bytes.NewReader(reqBuf), chunk)
		buf := make([]byte, 0, 64)
		for i := 0; i < n; i++ {
			var err error
			if buf, err = kvsvc.ReadFrame(br, buf); err != nil {
				rerr = err
				return
			}
		}
	})
	if rerr != nil {
		return out, fmt.Errorf("replay: ReadFrame: %w", rerr)
	}
	_ = sink

	// Store: one handle, the same calls the server's execute makes.
	st, err := newWorkloadStore(sp, ks)
	if err != nil {
		return out, err
	}
	h := st.NewHandle()
	clock := newClock()
	a0 := mallocs()
	var total int64
	for _, o := range ops {
		t0 := clock()
		execOp(h, o.op, o.key, o.val)
		dt := clock() - t0
		total += dt
		switch o.op {
		case opGet:
			out.get.add(dt)
		case opPut:
			out.put.add(dt)
		default:
			out.del.add(dt)
		}
	}
	out.storeAllocs = float64(mallocs()-a0) / float64(n)
	out.storeNsPerOp = float64(total) / float64(n)
	st.Drain()
	return out, nil
}
