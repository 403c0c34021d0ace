// Command perfbench is gosmr's end-to-end benchmark. It runs one named
// workload for a fixed time from a seed, checks every response against
// a per-connection sequential model, and prints each metric by name and
// unit, then one JSON result line. With -trace it instead runs the
// traced variant and prints the per-layer table. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gosmrd   string
	traceDir string
}

// metric is one reported number. na marks a metric that does not apply
// to the workload (reported as 0).
type metric struct {
	name, unit string
	value      float64
	n          uint64 // samples behind a percentile, 0 if not a percentile
	na         bool
}

type report struct {
	metrics   []metric
	extra     []metric // printed in the table, not in the JSON line
	attempted int64
	failed    int64
	problems  []string // integrity or drain failures: correct=false
	notes     []string
	selfTable []selfRow
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// addPct adds a latency percentile measured in ns, reported in µs.
func (r *report) addPct(name string, p pct) {
	r.metrics = append(r.metrics, metric{name: name, unit: "us", value: p.Value / 1e3, n: p.N, na: !p.OK})
}

// addLatencies reports GET and mutation latency percentiles. Only p50
// goes into the result line; p90 and p99 are printed in the table. On
// the 2-vCPU benchmark host the tails swing with the hypervisor's
// wake-up latency for minutes at a time: in one ten-run set of
// svc-readmost-1m the p90s spread by 0.28 and 0.29 while the p50s
// spread by 0.12 and 0.13, so only the p50s hold a bound across runs.
func addLatencies(rep *report, wins []winStats) {
	rep.addPct("get_p50_us", windowMedian(wins, getsOf, 0.5))
	rep.addPct("mut_p50_us", windowMedian(wins, mutsOf, 0.5))
	for _, m := range []struct {
		name string
		sel  func(*winStats) *hist
		q    float64
	}{{"get_p90_us", getsOf, 0.9}, {"mut_p90_us", mutsOf, 0.9}, {"get_p99_us", getsOf, 0.99}, {"mut_p99_us", mutsOf, 0.99}} {
		p := windowMedian(wins, m.sel, m.q)
		rep.extra = append(rep.extra, metric{name: m.name, unit: "us", value: p.Value / 1e3, n: p.N, na: !p.OK})
	}
}

func (r *report) addNA(name, unit string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, na: true})
}

func newClock() func() int64 {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.gosmrd, "gosmrd", "", "gosmrd binary (svc workloads)")
	flag.StringVar(&o.traceDir, "tracedir", ".", "directory for the span dump of traced runs")
	flag.Parse()
	o.trace = *trace == 1
	sp, err := specByName(o.workload)
	if err != nil {
		fatal(err)
	}
	steal0, total0, stealErr := hostSteal()
	var rep *report
	switch {
	case sp.svc && o.trace:
		rep, err = traceSvc(sp, o)
	case sp.svc:
		rep, err = runSvc(sp, o)
	case o.trace:
		rep, err = traceStore(sp, o)
	default:
		rep, err = runStore(sp, o)
	}
	if err != nil {
		fatal(err)
	}
	// Host contention shows here first: on a shared VM, a run whose
	// vCPUs lost time to other tenants reads slower on every metric.
	if steal1, total1, err := hostSteal(); err == nil && stealErr == nil {
		rep.extra = append(rep.extra, metric{name: "host.steal_frac", unit: "frac",
			value: frac(float64(steal1-steal0), float64(total1-total0))})
	}
	printReport(sp, o, rep)
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printReport(sp spec, o opts, r *report) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("workload %s  seed %d  %gs  %s metrics\n", sp.name, o.seed, o.seconds, kind)
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for _, m := range append(append([]metric{}, r.metrics...), r.extra...) {
		switch {
		case m.na && m.n > 0:
			fmt.Printf("  %-32s %14s %-6s (n=%d, too few samples)\n", m.name, "n/a", m.unit, m.n)
		case m.na:
			fmt.Printf("  %-32s %14s %-6s (does not apply)\n", m.name, "n/a", m.unit)
		case m.n > 0:
			fmt.Printf("  %-32s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
		default:
			fmt.Printf("  %-32s %14.6g %-6s\n", m.name, m.value, m.unit)
		}
	}
	if len(r.selfTable) > 0 {
		printSelfTable(os.Stdout, r.selfTable)
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED:", p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range r.metrics {
		v := m.value
		if m.na || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = jm{v, m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   ms,
	})
	fmt.Println(string(line))
}

// frac divides, returning 0 for an empty base.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowMedian is the median over windows of each window's percentile
// q of the histogram sel picks. Consecutive windows are merged until
// they hold twice the samples q needs (20 beyond it), so a sparse
// stream gets longer windows and a dense one keeps 100 ms windows. A
// short stall of the shared host (a descheduled vCPU) lifts the tail of
// the windows it falls in; with short windows most of them stay clean,
// and the median reports the tail of a typical window rather than how
// many stalls the host had during the run.
func windowMedian(wins []winStats, sel func(*winStats) *hist, q float64) pct {
	need := uint64(math.Ceil(2 * minBeyond / (1 - q)))
	var vals []float64
	var n uint64
	var acc hist
	for i := range wins {
		h := sel(&wins[i])
		n += h.n
		acc.merge(h)
		if acc.n >= need {
			if p := acc.pct(q); p.OK {
				vals = append(vals, p.Value)
			}
			acc = hist{}
		}
	}
	if len(vals) == 0 {
		return pct{N: n}
	}
	return pct{Value: median(vals), N: n, OK: true}
}

func getsOf(w *winStats) *hist { return &w.get }
func mutsOf(w *winStats) *hist { return &w.mut }
func allOf(w *winStats) *hist {
	var h hist
	h.merge(&w.get)
	h.merge(&w.mut)
	return &h
}

// ---- service workloads ----

// preload fills a fresh server with the workload's initial keys over
// `parts` connections, 64 pipelined PUTs at a time (half the default
// per-connection budget, so nothing is shed).
func preload(addr string, sp spec, ks keyspace) error {
	errs := make(chan error, parts)
	for p := 0; p < parts; p++ {
		go func(p int) {
			errs <- func() error {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return err
				}
				defer c.Close()
				var keys []uint64
				for i := p; i < sp.keys; i += parts {
					if ks.preloaded(sp, i) {
						keys = append(keys, ks.key(i))
					}
				}
				buf := make([]byte, 0, 64*25)
				rbuf := make([]byte, 64<<10)
				var fr kvsvc.FrameReader
				for off := 0; off < len(keys); off += 64 {
					batch := keys[off:min(off+64, len(keys))]
					buf = buf[:0]
					for i, k := range batch {
						buf = kvsvc.AppendRequest(buf, kvsvc.Request{Op: opPut, ID: uint32(i), Key: k, Val: valueOf(k, 0)})
					}
					if _, err := c.Write(buf); err != nil {
						return err
					}
					got := 0
					for got < len(batch) {
						n, err := c.Read(rbuf)
						if err != nil {
							return fmt.Errorf("preload read: %w", err)
						}
						if err := fr.Feed(rbuf[:n], func(p []byte) error {
							r, err := kvsvc.DecodeResponse(p)
							if err != nil {
								return err
							}
							if r.Status != kvsvc.StatusOK {
								return fmt.Errorf("preload PUT answered status %d", r.Status)
							}
							got++
							return nil
						}); err != nil {
							return err
						}
					}
				}
				return nil
			}()
		}(p)
	}
	var first error
	for p := 0; p < parts; p++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// phaseSum merges one phase across connections.
type phaseSum struct {
	t                tally
	get, mut, mutRTT hist
	wins             []winStats
	ping, lag        hist
	reads, resps     int64
	spans            []span
}

// runPhase offers `rate` ops/s in total for dur, split evenly over the
// connections with their schedules interleaved, then waits for every
// response. Latencies and lags are also kept per window of length win.
func runPhase(ds []*connGen, rate float64, dur, win time.Duration, clock func() int64) (*phaseSum, error) {
	interval := float64(len(ds)) * 1e9 / rate
	nw := int((dur + win - 1) / win)
	t0 := clock() + int64(100*time.Microsecond)
	phs := make([]*phase, len(ds))
	for i := range ds {
		phs[i] = &phase{t0: t0 + int64(float64(i)*interval/float64(len(ds))), dur: int64(dur),
			interval: interval, win: int64(win), wins: make([]winStats, nw)}
	}
	err := pace(ds, phs)
	for i, d := range ds {
		if e := d.drain(phs[i], 5*time.Second); e != nil && err == nil {
			err = e
		}
	}
	s := &phaseSum{wins: make([]winStats, nw)}
	for _, ph := range phs {
		ph.t.attempted = ph.attempted
		ph.t.lost = ph.lost
		s.t.merge(ph.t)
		s.get.merge(&ph.get)
		s.mut.merge(&ph.mut)
		s.mutRTT.merge(&ph.mutRTT)
		s.ping.merge(&ph.ping)
		s.lag.merge(&ph.lag)
		s.reads += ph.reads
		s.resps += ph.resps
		for i := range ph.wins {
			s.wins[i].get.merge(&ph.wins[i].get)
			s.wins[i].mut.merge(&ph.wins[i].mut)
			s.wins[i].lag.merge(&ph.wins[i].lag)
		}
		for _, r := range ph.spans {
			s.spans = append(s.spans, spansOf(r, len(s.spans))...)
		}
	}
	return s, err
}

// svcRun is one started, preloaded server with connected generators.
type svcRun struct {
	srv   *server
	gens  []*connGen
	clock func() int64
	setup float64 // launch to preloaded, seconds
}

// startSvc launches server instance i of a run, preloads it and
// connects the generators. Each instance gets its own op streams, derived
// from the seed and i.
func startSvc(sp spec, o opts, i int) (*svcRun, error) {
	// The sender asleep in nanosleep keeps its P until sysmon retakes
	// it (up to 10 ms when the runtime is idle); a spare P per receiver
	// lets them run meanwhile. This adds no CPU, only scheduling slots.
	runtime.GOMAXPROCS(1 + parts)
	ks := newKeyspace(o.seed)
	srv, err := startServer(o.gosmrd)
	if err != nil {
		return nil, err
	}
	if err := preload(srv.addr, sp, ks); err != nil {
		srv.kill()
		return nil, fmt.Errorf("preload: %w", err)
	}
	r := &svcRun{srv: srv, clock: newClock(), setup: time.Since(srv.launched).Seconds()}
	z := zipfFor(sp)
	streamSeed := o.seed + int64(i)<<32
	for p := 0; p < parts; p++ {
		c, err := net.Dial("tcp", srv.addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.gens = append(r.gens, newConnGen(p, c, newModel(sp, ks, p), newOpStream(sp, streamSeed, p, z), r.clock))
	}
	return r, nil
}

// close tears the connections down and kills the server if it is still
// running (error paths).
func (r *svcRun) close() {
	for _, d := range r.gens {
		d.c.Close()
		<-d.recvDone
	}
	r.gens = nil
	if r.srv != nil {
		r.srv.kill()
		r.srv = nil
	}
}

// finish closes the connections and asserts a clean drain.
func (r *svcRun) finish(rep *report) {
	var corrupt int64
	for _, d := range r.gens {
		d.c.Close()
		<-d.recvDone
		corrupt += d.corrupt.Load()
	}
	r.gens = nil
	if corrupt > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d responses undecodable, unmatched or carrying a foreign/never-written value", corrupt))
	}
	srv := r.srv
	r.srv = nil
	if err := srv.stop(); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
}

// latWin is the window over which the nominal-rate latency percentiles
// are taken before their median across windows is reported.
const latWin = 100 * time.Millisecond

// p99Limit is the tail-latency limit that defines goodput: the highest
// offered rate whose p99 (from intended send time) stays under it with
// no failures and no growing backlog.
const p99Limit = 2 * time.Millisecond

type step struct {
	rate float64
	pass bool
	p99  float64
}

// searchGoodput looks for the highest offered rate whose p99 stays
// under p99Limit with no failure and no growing backlog. It ramps the
// rate up from nominal by 50% a step until a step fails, restarts at
// the geometric midpoint of the last passing and the failing rate, and
// from there runs a weighted up-down staircase: +4% after a pass, -8%
// after a failure. The staircase settles where a step passes two times
// in three; it returns the rates it visited from the midpoint on, and
// goodput is their median, so the overshooting ramp step does not count.
// A slow spell of the shared host pushes the staircase down for a few
// steps and it climbs back; a bisection would never revisit the rates
// it ruled out. If no step failed, it returns the highest rate tried.
//
// A step passes when nothing failed, the median of its 100 ms windows'
// p99 is under the limit, and its last window's median schedule lag is
// under the limit too. Past the knee the generator falls behind within
// a step, so an overloaded rate fails on lag even when the requests it
// did send were fast.
func searchGoodput(r *svcRun, sp spec, budget time.Duration) ([]float64, []step, error) {
	const stepDur, stepWin = 300 * time.Millisecond, 100 * time.Millisecond
	rate, best := sp.nominal, 0.0
	climbing := true
	var steps []step
	var tracked []float64
	deadline := time.Now().Add(budget)
	for time.Until(deadline) >= stepDur {
		s, err := runPhase(r.gens, rate, stepDur, stepWin, r.clock)
		if err != nil {
			return nil, steps, err
		}
		p := windowMedian(s.wins, allOf, 0.99)
		lag := s.wins[len(s.wins)-1].lag.pct(0.5)
		pass := s.t.failed() == 0 && p.OK && p.Value <= float64(p99Limit) && lag.OK && lag.Value <= float64(p99Limit)
		steps = append(steps, step{rate, pass, p.Value})
		if climbing {
			if pass {
				best = rate
				rate *= 1.5
				continue
			}
			climbing = false
			if best > 0 {
				rate = math.Sqrt(best * rate)
			} else {
				rate *= 0.92
			}
			continue
		}
		tracked = append(tracked, rate)
		if pass {
			rate *= 1.04
		} else {
			rate *= 0.92
		}
	}
	if tracked == nil {
		return []float64{best}, steps, nil
	}
	return tracked, steps, nil
}

// instanceOut is what one server instance of an untraced run measured.
type instanceOut struct {
	setup, cpuUsPerOp, rssMB float64
	tracked                  []float64 // goodput staircase rates
	nom                      *phaseSum
	steps                    []step
}

// measureInstance runs one server instance through warm-up, the
// nominal-rate phase and the goodput search, then asserts its drain.
func measureInstance(sp spec, o opts, i int, dur time.Duration, rep *report) (*instanceOut, error) {
	r, err := startSvc(sp, o, i)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if _, err := runPhase(r.gens, sp.nominal, 500*time.Millisecond, latWin, r.clock); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	nomDur := dur * 3 / 10
	p0, err := r.srv.proc()
	if err != nil {
		return nil, err
	}
	nom, err := runPhase(r.gens, sp.nominal, nomDur, latWin, r.clock)
	if err != nil {
		return nil, fmt.Errorf("nominal phase: %w", err)
	}
	p1, err := r.srv.proc()
	if err != nil {
		return nil, err
	}
	tracked, steps, err := searchGoodput(r, sp, dur-nomDur)
	if err != nil {
		return nil, fmt.Errorf("goodput search: %w", err)
	}
	pEnd, err := r.srv.proc()
	if err != nil {
		return nil, err
	}
	r.finish(rep)
	cpu := p1.sub(p0)
	return &instanceOut{
		setup:      r.setup,
		tracked:    tracked,
		cpuUsPerOp: frac(cpu.cpuSec*1e6, float64(nom.t.completed)),
		rssMB:      float64(pEnd.hwmKB) / 1024,
		nom:        nom,
		steps:      steps,
	}, nil
}

// runSvc splits the run over sp.setups server instances, each set up,
// measured and drained in turn, and reports each metric as the median
// over instances (latencies: over all their windows; goodput: over all
// their staircase rates). A slow spell of the shared host, or an
// unlucky placement of one process, then moves one instance's figures
// and not the run's.
func runSvc(sp spec, o opts) (*report, error) {
	rep := &report{}
	per := time.Duration(o.seconds / float64(sp.setups) * float64(time.Second))
	var setups, goodputs, cpus, rss []float64 // goodputs: staircase rates
	var wins []winStats
	var t tally
	var lag hist
	for i := 0; i < sp.setups; i++ {
		in, err := measureInstance(sp, o, i, per, rep)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		setups = append(setups, in.setup)
		goodputs = append(goodputs, in.tracked...)
		cpus = append(cpus, in.cpuUsPerOp)
		rss = append(rss, in.rssMB)
		wins = append(wins, in.nom.wins...)
		t.merge(in.nom.t)
		lag.merge(&in.nom.lag)
		rep.notes = append(rep.notes, fmt.Sprintf("instance %d: setup %.3fs goodput %.0f ops/s cpu %.3fus/op rss %.1fMB",
			i, in.setup, median(append([]float64(nil), in.tracked...)), in.cpuUsPerOp, in.rssMB))
		for _, s := range in.steps {
			rep.notes = append(rep.notes, fmt.Sprintf("  goodput step %9.0f ops/s  p99 %8.1f us  pass=%v", s.rate, s.p99/1e3, s.pass))
		}
	}
	rep.add("setup_s", "s", median(setups))
	rep.add("goodput_ops", "ops/s", median(goodputs))
	addLatencies(rep, wins)
	rep.add("cpu_us_per_op", "us", median(cpus))
	rep.add("rss_peak_mb", "MB", median(rss))
	rep.attempted, rep.failed = t.attempted, t.failed()
	rep.extra = append(rep.extra,
		metric{name: "failed_frac", unit: "frac", value: frac(float64(t.failed()), float64(t.attempted))},
		metric{name: "wrong_frac", unit: "frac", value: frac(float64(t.wrong), float64(t.checked))},
		metric{name: "shed_responses", unit: "count", value: float64(t.shed)},
		metric{name: "error_responses", unit: "count", value: float64(t.errs)},
		metric{name: "wrong_responses", unit: "count", value: float64(t.wrong)},
		metric{name: "checked_responses", unit: "count", value: float64(t.checked)},
		metric{name: "loadgen.lag_p99_us", unit: "us", value: lag.pct(0.99).Value / 1e3, n: lag.n},
	)
	rep.notes = append([]string{fmt.Sprintf("%d server instances; nominal rate %.0f ops/s open loop over %d connections; p99 limit %v",
		sp.setups, sp.nominal, parts, p99Limit)}, rep.notes...)
	return rep, nil
}

// traceSvc is the traced run: an untraced and a traced window at the
// nominal rate, server counters sampled only at window edges, then an
// in-process replay of the same op stream through each layer.
func traceSvc(sp spec, o opts) (*report, error) {
	r, err := startSvc(sp, o, 0)
	if err != nil {
		return nil, err
	}
	defer r.close()
	rep := &report{}
	if _, err := runPhase(r.gens, sp.nominal, 500*time.Millisecond, latWin, r.clock); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	win := time.Duration(o.seconds * 0.4 * float64(time.Second))
	a0, err := r.srv.stats()
	if err != nil {
		return nil, err
	}
	sp0, err := r.srv.proc()
	if err != nil {
		return nil, err
	}
	self0, err := readProc("/proc", "self")
	if err != nil {
		return nil, err
	}
	u, err := runPhase(r.gens, sp.nominal, win, latWin, r.clock)
	if err != nil {
		return nil, err
	}
	self1, err := readProc("/proc", "self")
	if err != nil {
		return nil, err
	}
	sp1, err := r.srv.proc()
	if err != nil {
		return nil, err
	}
	a1, err := r.srv.stats()
	if err != nil {
		return nil, err
	}
	for _, d := range r.gens {
		d.traceEvery.Store(64)
		d.pingEvery = 256
	}
	t, err := runPhase(r.gens, sp.nominal, win, latWin, r.clock)
	if err != nil {
		return nil, err
	}
	self2, err := readProc("/proc", "self")
	if err != nil {
		return nil, err
	}
	r.finish(rep)

	rp, err := replay(sp, o.seed, 200_000)
	if err != nil {
		return nil, err
	}
	ops := float64(u.t.completed)
	srvCPU := sp1.sub(sp0)
	srvUsPerOp := frac(srvCPU.cpuSec*1e6, ops)
	genU := frac(self1.sub(self0).cpuSec*1e6, ops)
	genT := frac(self2.sub(self1).cpuSec*1e6, float64(t.t.completed))
	gets := float64(u.get.n)

	rep.add("loadgen.lag_p99_us", "us", u.lag.pct(0.99).Value/1e3)
	rep.add("loadgen.cpu_us_per_op", "us", genU)
	rep.add("loadgen.resps_per_read", "count", frac(float64(u.resps), float64(u.reads)))
	addReplay(rep, rp, srvUsPerOp)
	pingP50 := t.ping.pct(0.5)
	rep.addPct("conn.ping_rtt_p50_us", pingP50)
	rep.addPct("conn.ping_rtt_p99_us", t.ping.pct(0.99))
	rep.add("conn.srv_read_syscalls_per_op", "count", frac(float64(srvCPU.syscr), ops))
	rep.add("conn.srv_write_syscalls_per_op", "count", frac(float64(srvCPU.syscw), ops))
	rep.add("conn.srv_ctxsw_per_op", "count", frac(float64(srvCPU.ctxsw), ops))
	if gets > 0 {
		rep.add("dispatch.fastpath_frac", "frac", frac(float64(a1.FastpathGets-a0.FastpathGets), gets))
	} else {
		rep.addNA("dispatch.fastpath_frac", "frac")
	}
	rep.add("dispatch.shed_frac", "frac", frac(float64(a1.ShedTotal-a0.ShedTotal), float64(u.t.attempted)))
	if mr := t.mutRTT.pct(0.5); mr.OK && pingP50.OK {
		rep.add("dispatch.hop_us", "us", (mr.Value-pingP50.Value)/1e3-rp.put.pct(0.5).Value/1e3)
	} else {
		rep.addNA("dispatch.hop_us", "us")
	}
	addSMR(rep, a1.Total.TotalRetired-a0.Total.TotalRetired, a1.Total.TotalFreed-a0.Total.TotalFreed,
		a1.Total.Scans-a0.Total.Scans, a1.Total.ScanNs-a0.Total.ScanNs, ops,
		a1.Total.PeakUnreclaimed, a1.Total.HazardSlots)
	rep.add("arena.peak_mb", "MB", float64(a1.ArenaPeakBytes)/(1<<20))
	rep.add("arena.live_mb", "MB", float64(a1.ArenaLiveBytes)/(1<<20))
	rep.add("runtime.heap_inuse_mb", "MB", float64(a1.HeapInuseBytes)/(1<<20))
	rep.add("runtime.goroutines", "count", float64(a1.Goroutines))
	rep.addNA("store.ops_2p", "ops/s")
	rep.addNA("store.speedup_2p", "frac")
	var all tally
	all.merge(u.t)
	all.merge(t.t)
	addCheck(rep, all, frac(genT, genU)-1)
	rep.attempted, rep.failed = all.attempted, all.failed()
	rep.selfTable = selfTimes(t.spans)
	if err := dumpSpans(o, t.spans, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func dumpSpans(o opts, spans []span, rep *report) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return nil
}

func addReplay(rep *report, rp replayOut, cpuUsPerOp float64) {
	rep.add("wire.req_encode_ns", "ns", rp.reqEnc)
	rep.add("wire.req_decode_ns", "ns", rp.reqDec)
	rep.add("wire.resp_encode_ns", "ns", rp.respEnc)
	rep.add("wire.resp_decode_ns", "ns", rp.respDec)
	rep.add("wire.allocs_per_op", "count", rp.wireAllocs)
	rep.add("frame.feed_ns", "ns", rp.feedNs)
	rep.add("frame.feed_allocs", "count", rp.feedAllocs)
	rep.add("frame.readframe_ns", "ns", rp.readFrameNs)
	rep.add("frame.readframe_allocs", "count", rp.readFrameAllocs)
	for _, h := range []struct {
		name string
		h    *hist
	}{{"get", &rp.get}, {"put", &rp.put}, {"del", &rp.del}} {
		for _, q := range []struct {
			sfx string
			q   float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			p := h.h.pct(q.q)
			rep.metrics = append(rep.metrics, metric{name: "store." + h.name + "_ns_" + q.sfx, unit: "ns",
				value: p.Value, n: p.N, na: !p.OK})
		}
	}
	rep.add("store.allocs_per_op", "count", rp.storeAllocs)
	rep.add("store.cpu_share", "frac", frac(rp.storeNsPerOp, cpuUsPerOp*1e3))
}

func addSMR(rep *report, retired, freed, scans, scanNs int64, ops float64, peak int64, slots int) {
	rep.add("smr.retired_per_op", "count", frac(float64(retired), ops))
	rep.add("smr.freed_per_op", "count", frac(float64(freed), ops))
	rep.add("smr.scans_per_kop", "count", frac(float64(scans)*1e3, ops))
	rep.add("smr.scan_ns_per_op", "ns", frac(float64(scanNs), ops))
	rep.add("smr.freed_per_scan", "count", frac(float64(freed), float64(scans)))
	rep.add("smr.unreclaimed_peak", "count", float64(peak))
	rep.add("smr.hazard_slots", "count", float64(slots))
}

func addCheck(rep *report, t tally, overhead float64) {
	rep.add("check.contradictions", "count", float64(t.wrong))
	rep.add("check.checked", "count", float64(t.checked))
	rep.add("check.wrong_frac", "frac", frac(float64(t.wrong), float64(t.checked)))
	rep.add("check.failed_frac", "frac", frac(float64(t.failed()), float64(t.attempted)))
	rep.add("trace.overhead_frac", "frac", overhead)
}
