package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

// storeSetup builds the workload's store `n` times and keeps the last;
// setup_s is the median build-and-preload time.
//
// The store workload runs on one P, set-up included. On the benchmark
// host (a 2-vCPU VM) the cost of moving a cache line between the two
// vCPUs flips between two levels for seconds at a time as the
// hypervisor places them: a store loop on two Ps swings between 3.7M
// and 10.7M ops/s with it, and on two Ps the median set-up time of one
// run moved between 4.7 and 6.8 ms from run to run. On one P the
// figures measure the Store's own work (traversal, protect, retire,
// scan) and not the host's placement. The traced run adds a window on
// two Ps for the cross-core traffic this leaves out.
func storeSetup(sp spec, ks keyspace, n int) (*kvsvc.Store, []float64, error) {
	runtime.GOMAXPROCS(1)
	var times []float64
	var st *kvsvc.Store
	for i := 0; i < n; i++ {
		t := time.Now()
		s, err := newWorkloadStore(sp, ks)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		if i < n-1 {
			if err := drainStore(s); err != nil {
				return nil, nil, err
			}
			runtime.GC()
			continue
		}
		st = s
	}
	return st, times, nil
}

// storeParts builds each goroutine's handle, model and op stream. The
// handles are made one after the other before any goroutine starts, so
// where they land in memory does not depend on goroutine start order:
// made concurrently, the run's throughput varied threefold between runs.
func storeParts(st *kvsvc.Store, sp spec, o opts) ([]kvsvc.Handle, []*model, []*opStream) {
	ks := newKeyspace(o.seed)
	z := zipfFor(sp)
	hs := make([]kvsvc.Handle, parts)
	ms := make([]*model, parts)
	ss := make([]*opStream, parts)
	for p := range ms {
		hs[p] = st.NewHandle()
		ms[p] = newModel(sp, ks, p)
		ss[p] = newOpStream(sp, o.seed, p, z)
	}
	return hs, ms, ss
}

func runStore(sp spec, o opts) (*report, error) {
	st, setups, err := storeSetup(sp, newKeyspace(o.seed), sp.setups)
	if err != nil {
		return nil, err
	}
	hs, ms, ss := storeParts(st, sp, o)
	clock := newClock()
	if _, err := storeLoop(st, hs, ms, ss, clock, 500*time.Millisecond, 0); err != nil {
		return nil, err
	}
	w, err := storeLoop(st, hs, ms, ss, clock, time.Duration(o.seconds*float64(time.Second)), 0)
	if err != nil {
		return nil, err
	}
	self, err := readProc("/proc", "self")
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if w.t.corrupt > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d GETs returned a foreign or never-written value", w.t.corrupt))
	}
	if err := drainStore(st); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	var rates []float64
	for i, n := range w.winOps {
		if i < len(w.winOps)-1 || len(w.winOps) == 1 { // the last window is partial
			rates = append(rates, float64(n)/storeWin.Seconds())
		}
	}
	rep.add("setup_s", "s", median(setups))
	rep.add("goodput_ops", "ops/s", median(rates))
	addLatencies(rep, w.wins)
	rep.add("cpu_us_per_op", "us", frac(w.cpu.cpuSec*1e6, float64(w.ops)))
	rep.add("rss_peak_mb", "MB", float64(self.hwmKB)/1024)
	rep.attempted, rep.failed = w.t.attempted, w.t.failed()
	rep.extra = append(rep.extra,
		metric{name: "failed_frac", unit: "frac", value: frac(float64(w.t.failed()), float64(w.t.attempted))},
		metric{name: "wrong_frac", unit: "frac", value: frac(float64(w.t.wrong), float64(w.t.checked))},
		metric{name: "wrong_responses", unit: "count", value: float64(w.t.wrong)},
		metric{name: "checked_responses", unit: "count", value: float64(w.t.checked)},
	)
	rep.notes = append(rep.notes, fmt.Sprintf("closed loop, %d goroutines, one Store call in %d timed", parts, sampleEvery))
	return rep, nil
}

func traceStore(sp spec, o opts) (*report, error) {
	st, _, err := storeSetup(sp, newKeyspace(o.seed), 1)
	if err != nil {
		return nil, err
	}
	hs, ms, ss := storeParts(st, sp, o)
	clock := newClock()
	if _, err := storeLoop(st, hs, ms, ss, clock, 500*time.Millisecond, 0); err != nil {
		return nil, err
	}
	win := time.Duration(o.seconds * 0.4 * float64(time.Second))
	u, err := storeLoop(st, hs, ms, ss, clock, win, 0)
	if err != nil {
		return nil, err
	}
	at := st.ArenaTotals()
	var mstats runtime.MemStats
	runtime.ReadMemStats(&mstats)
	t, err := storeLoop(st, hs, ms, ss, clock, win, 64)
	if err != nil {
		return nil, err
	}
	// The measured loop runs on one P (see storeSetup), so readers and
	// writers on different cores never contend for hazard slots or
	// retired nodes. This window runs it on two Ps to measure that
	// cross-core traffic. It is only reported here, since its throughput
	// on the benchmark host is bimodal.
	runtime.GOMAXPROCS(parts)
	mp, err := storeLoop(st, hs, ms, ss, clock, win/4, 0)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if u.t.corrupt+t.t.corrupt+mp.t.corrupt > 0 {
		rep.problems = append(rep.problems, "GETs returned a foreign or never-written value")
	}
	if err := drainStore(st); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	rp, err := replay(sp, o.seed, 200_000)
	if err != nil {
		return nil, err
	}
	ops := float64(u.ops)
	cpuU := frac(u.cpu.cpuSec*1e6, ops)
	cpuT := frac(t.cpu.cpuSec*1e6, float64(t.ops))
	// The generator and the executor are one process here: there is no
	// connection layer, dispatch hop or schedule lag to measure.
	for _, n := range []string{"loadgen.lag_p99_us", "loadgen.cpu_us_per_op", "loadgen.resps_per_read"} {
		rep.addNA(n, map[bool]string{true: "us", false: "count"}[n != "loadgen.resps_per_read"])
	}
	addReplay(rep, rp, cpuU)
	for _, n := range []struct{ name, unit string }{
		{"conn.ping_rtt_p50_us", "us"}, {"conn.ping_rtt_p99_us", "us"},
		{"conn.srv_read_syscalls_per_op", "count"}, {"conn.srv_write_syscalls_per_op", "count"},
		{"conn.srv_ctxsw_per_op", "count"},
		{"dispatch.fastpath_frac", "frac"}, {"dispatch.shed_frac", "frac"}, {"dispatch.hop_us", "us"},
	} {
		rep.addNA(n.name, n.unit)
	}
	addSMR(rep, u.smr1.TotalRetired-u.smr0.TotalRetired, u.smr1.TotalFreed-u.smr0.TotalFreed,
		u.smr1.Scans-u.smr0.Scans, u.smr1.ScanNs-u.smr0.ScanNs, ops, u.smr1.PeakUnreclaimed, u.smr1.HazardSlots)
	rep.add("arena.peak_mb", "MB", float64(at.PeakBytes)/(1<<20))
	rep.add("arena.live_mb", "MB", float64(at.Bytes)/(1<<20))
	rep.add("runtime.heap_inuse_mb", "MB", float64(mstats.HeapInuse)/(1<<20))
	rep.add("runtime.goroutines", "count", float64(u.goroutines))
	ops2p := float64(mp.ops) / (win / 4).Seconds()
	rep.add("store.ops_2p", "ops/s", ops2p)
	rep.add("store.speedup_2p", "frac", frac(ops2p, ops/win.Seconds()))
	var all tally
	all.merge(u.t)
	all.merge(t.t)
	all.merge(mp.t)
	addCheck(rep, all, frac(cpuT, cpuU)-1)
	rep.attempted, rep.failed = all.attempted, all.failed()
	rep.selfTable = selfTimes(t.spans)
	if err := dumpSpans(o, t.spans, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
