package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/kvsvc"
	"github.com/gosmr/gosmr/internal/smr"
)

// newWorkloadStore builds a Store with gosmrd's default configuration
// (reuse arena, every other field left to kvsvc's own defaults) and
// preloads it like the workload's server.
func newWorkloadStore(sp spec, ks keyspace) (*kvsvc.Store, error) {
	st, err := kvsvc.NewStore(kvsvc.Config{Mode: arena.ModeReuse})
	if err != nil {
		return nil, err
	}
	h := st.NewHandle()
	for i := 0; i < sp.keys; i++ {
		if ks.preloaded(sp, i) {
			k := ks.key(i)
			kvsvc.Put(h, k, valueOf(k, 0))
		}
	}
	st.ReleaseHandle(h)
	return st, nil
}

// execOp runs one request the way gosmrd's shard workers do.
func execOp(h kvsvc.Handle, op uint8, key, val uint64) (uint8, uint64) {
	switch op {
	case opGet:
		if v, ok := h.Get(key); ok {
			return kvsvc.StatusOK, v
		}
		return kvsvc.StatusNotFound, 0
	case opPut:
		kvsvc.Put(h, key, val)
		return kvsvc.StatusOK, 0
	default:
		if h.Delete(key) {
			return kvsvc.StatusOK, 0
		}
		return kvsvc.StatusNotFound, 0
	}
}

// drainStore finishes the store and asserts nothing is left unreclaimed
// and the arena saw no violations.
func drainStore(st *kvsvc.Store) error {
	st.Drain()
	if u := st.Unreclaimed(); u != 0 {
		return fmt.Errorf("store drain left %d nodes unreclaimed", u)
	}
	if uaf, df := st.BugCounts(); uaf != 0 || df != 0 {
		return fmt.Errorf("store arena violations: uaf=%d double_free=%d", uaf, df)
	}
	return nil
}

// storeWindow is one closed-loop stretch over the store.
type storeWindow struct {
	t          tally
	ops        int64
	get, mut   hist
	wins       []winStats
	winOps     []int64
	spans      []span
	goroutines int        // runtime.NumGoroutine while the loop ran
	cpu        procSample // self, over the window
	smr0, smr1 smr.Stats
}

// storeWin is the store loop's window for per-window medians. It is
// longer than the service workloads' latWin because the windows live in
// the process whose peak RSS the workload reports.
const storeWin = 500 * time.Millisecond

// sampleEvery: one call in this many is timed (two clock reads cost
// about a quarter of a Store call).
const sampleEvery = 8

// storeLoop drives the store from `parts` closed-loop goroutines, one
// per handle, for dur; traceEvery > 0 records spans for every
// traceEvery-th op.
func storeLoop(st *kvsvc.Store, hs []kvsvc.Handle, models []*model, streams []*opStream, clock func() int64,
	dur time.Duration, traceEvery int64) (*storeWindow, error) {
	w := &storeWindow{}
	nw := int((dur + storeWin - 1) / storeWin)
	w.wins = make([]winStats, nw)
	w.winOps = make([]int64, nw)
	type res struct {
		t        tally
		ops      int64
		get, mut hist
		wins     []winStats
		winOps   []int64
		calls    []storeCall
	}
	out := make([]*res, parts)
	p0, err := readProc("/proc", "self")
	if err != nil {
		return nil, err
	}
	w.smr0 = st.StatsTotal()
	start := clock()
	end := start + int64(dur)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		r := &res{wins: make([]winStats, nw), winOps: make([]int64, nw)}
		out[p] = r
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h, m, ops := hs[p], models[p], streams[p]
			var seq int64
			if p == 0 {
				w.goroutines = runtime.NumGoroutine()
			}
			now := clock()
			for now < end {
				wi := min(int((now-start)/int64(storeWin)), nw-1)
				for i := 0; i < 64; i++ {
					op, j := ops.next()
					val, e := m.apply(op, j)
					key := m.key(j)
					var status uint8
					var rv uint64
					if seq%sampleEvery == 0 {
						t0 := clock()
						status, rv = execOp(h, op, key, val)
						t1 := clock()
						v := m.judge(op, j, e, status, rv)
						r.t.add(v, status)
						if op == opGet {
							r.get.add(t1 - t0)
							r.wins[wi].get.add(t1 - t0)
						} else {
							r.mut.add(t1 - t0)
							r.wins[wi].mut.add(t1 - t0)
						}
						if traceEvery > 0 && seq%traceEvery == 0 {
							r.calls = append(r.calls, storeCall{part: p, seq: seq, op: op, t0: t0, t1: t1, t2: clock()})
						}
					} else {
						status, rv = execOp(h, op, key, val)
						r.t.add(m.judge(op, j, e, status, rv), status)
					}
					seq++
				}
				r.ops += 64
				r.winOps[wi] += 64
				now = clock()
			}
		}(p)
	}
	wg.Wait()
	w.smr1 = st.StatsTotal()
	p1, err := readProc("/proc", "self")
	if err != nil {
		return nil, err
	}
	w.cpu = p1.sub(p0)
	for _, r := range out {
		w.t.merge(r.t)
		w.ops += r.ops
		w.get.merge(&r.get)
		w.mut.merge(&r.mut)
		for i := range r.wins {
			w.wins[i].get.merge(&r.wins[i].get)
			w.wins[i].mut.merge(&r.wins[i].mut)
			w.winOps[i] += r.winOps[i]
		}
		for _, c := range r.calls {
			w.spans = append(w.spans, storeSpansOf(c, len(w.spans))...)
		}
	}
	w.t.attempted = w.ops
	return w, nil
}
