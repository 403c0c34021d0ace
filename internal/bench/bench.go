// Package bench is the benchmark harness reproducing the HP++ paper's
// evaluation (§5 and Appendix C): workload generation, timed multi-worker
// runs, unreclaimed-garbage and memory sampling, and the long-running-read
// and robustness scenarios.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/smr"
)

// Workload is the operation mix of a run.
type Workload int

// Workloads of the paper: write-only (50% insert / 50% delete), read-write
// (50% read / 25% insert / 25% delete), read-most (90% read / 5% / 5%).
const (
	WriteOnly Workload = iota
	ReadWrite
	ReadMost
)

// String returns the paper's name for the workload.
func (w Workload) String() string {
	switch w {
	case WriteOnly:
		return "write-only"
	case ReadWrite:
		return "read-write"
	case ReadMost:
		return "read-most"
	}
	return "unknown"
}

// ParseWorkload converts a name to a Workload.
func ParseWorkload(s string) (Workload, error) {
	switch s {
	case "write-only", "write":
		return WriteOnly, nil
	case "read-write", "rw":
		return ReadWrite, nil
	case "read-most", "read":
		return ReadMost, nil
	}
	return 0, fmt.Errorf("bench: unknown workload %q", s)
}

// Handle is the per-worker operation surface every data-structure variant
// exposes.
type Handle interface {
	Get(key uint64) (uint64, bool)
	Insert(key, val uint64) bool
	Delete(key uint64) bool
}

// PoolInfo is the slice of the arena pool API the stress harness needs:
// bug counters, panic-vs-count switching, and the deref fault-injection
// hook. Every *arena.Pool[T] (and the per-package pool wrappers embedding
// one) satisfies it.
type PoolInfo interface {
	Name() string
	Stats() arena.Stats
	Mode() arena.Mode
	SetCount()
	SetDerefHook(func(uint64))
}

// TargetOf is one (data structure, scheme) instance under test, over
// the data structure's operation surface H. NewTarget, NewQueueTarget
// and NewStackTarget in targets*.go build them.
type TargetOf[H any] struct {
	DS     string
	Scheme string

	// NewHandle returns a fresh per-worker handle. Called from the main
	// goroutine only.
	NewHandle func() H
	// Finish finishes every handle and drains reclamation after all
	// workers stop. Handles must not be used afterwards.
	Finish func()
	// Unreclaimed returns the scheme's retired-but-unfreed count.
	Unreclaimed func() int64
	// PeakUnreclaimed returns the scheme's exact peak unreclaimed count.
	PeakUnreclaimed func() int64
	// Stats returns the scheme domain's smr.Stats snapshot.
	Stats func() smr.Stats
	// MemBytes returns live arena bytes (nodes allocated and not freed).
	MemBytes func() int64
	// Stall creates a participant that enters a critical section (or
	// holds a protection) and never progresses — the robustness
	// adversary of §4.4.
	Stall func()
	// StallRelease finishes every participant Stall created, so a
	// post-measurement drain can reach zero. RunWithStall calls it after
	// recording the stalled-phase measurements.
	StallRelease func()
	// Pools lists every arena pool backing the target, for UAF and
	// double-free attribution in detect-mode stress runs.
	Pools []PoolInfo
	// Agitate, if non-nil, performs one pulse of reclamation pressure
	// from a dedicated goroutine: an epoch-advance/ejection attempt for
	// EBR/PEBR/NBR (the PEBR neutralization storm). Safe to call
	// concurrently with workers, but only from one goroutine.
	Agitate func()
}

// Target is a map-style target: the Get/Insert/Delete surface of the
// paper's throughput figures.
type Target = TargetOf[Handle]

// Config parameterizes a run.
type Config struct {
	Threads  int
	Duration time.Duration
	Workload Workload
	KeyRange uint64
	// Prefill is the fraction of the key range inserted before the run
	// (the paper uses 0.5).
	Prefill float64
	// SampleEvery is the unreclaimed/memory sampling period.
	SampleEvery time.Duration
	// Seed makes runs reproducible.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.KeyRange == 0 {
		c.KeyRange = 10000
	}
	if c.Prefill == 0 {
		c.Prefill = 0.5
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 5 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 0x9E3779B97F4A7C15
	}
	return c
}

// Result is the outcome of one run.
type Result struct {
	Target   string        `json:"target"`
	Ops      uint64        `json:"ops"`
	Duration time.Duration `json:"duration_ns"`
	// MopsPerSec is throughput in million operations per second.
	MopsPerSec float64 `json:"mops_per_sec"`
	// PeakUnreclaimed is the exact peak retired-but-unfreed count.
	PeakUnreclaimed int64 `json:"peak_unreclaimed"`
	// AvgUnreclaimed is the time-sampled average unreclaimed count.
	AvgUnreclaimed float64 `json:"avg_unreclaimed"`
	// PeakMemBytes is the sampled peak of live arena bytes.
	PeakMemBytes int64 `json:"peak_mem_bytes"`
	// FinalUnreclaimed is the unreclaimed count after Finish.
	FinalUnreclaimed int64 `json:"final_unreclaimed"`
	// StalledUnreclaimed is the unreclaimed count at measurement end while
	// the stalled participant was still parked (before StallRelease and
	// Finish). Only RunWithStall fills it.
	StalledUnreclaimed int64 `json:"stalled_unreclaimed,omitempty"`
	// Stats is the domain's smr.Stats snapshot taken after Finish, with
	// the arena fields filled from the target's pools.
	Stats smr.Stats `json:"smr_stats"`
}

// SMRStats snapshots the target's scheme stats and fills the arena
// live/quarantine fields from its pools (quarantined slots are exactly the
// freed ones in detect mode, which never recycles).
func (t TargetOf[H]) SMRStats() smr.Stats {
	var st smr.Stats
	if t.Stats != nil {
		st = t.Stats()
	}
	for _, p := range t.Pools {
		ps := p.Stats()
		st.ArenaLive += ps.Live
		if p.Mode() == arena.ModeDetect {
			st.ArenaQuarantined += ps.Frees
		}
	}
	return st
}

// rng is a splitmix64 generator; each worker owns one.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// Prefill inserts roughly Prefill*KeyRange keys using h, in a shuffled
// order: the unbalanced external trees (NM, EFRB) degenerate into
// 50K-deep sticks if a big key range is inserted ascending.
func Prefill(h Handle, cfg Config) {
	cfg = cfg.withDefaults()
	r := rng{s: cfg.Seed ^ 0xDEADBEEF}
	keys := make([]uint64, cfg.KeyRange)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	for _, k := range keys {
		if float64(r.next()%1000)/1000 < cfg.Prefill {
			h.Insert(k, k)
		}
	}
}

// Run executes the configured workload against target and reports the
// measurements.
func Run(target Target, cfg Config) Result {
	res := run(target, cfg)
	finishResult(&res, target)
	return res
}

// finishResult drains the target and fills the post-drain fields.
func finishResult(res *Result, target Target) {
	target.Finish()
	res.FinalUnreclaimed = target.Unreclaimed()
	res.Stats = target.SMRStats()
}

// run executes the workload and fills the measurement-phase fields,
// leaving the target undrained so RunWithStall can release its stalled
// participant before the single Finish.
func run(target Target, cfg Config) Result {
	cfg = cfg.withDefaults()
	handles := make([]Handle, cfg.Threads)
	for i := range handles {
		handles[i] = target.NewHandle()
	}
	Prefill(handles[0], cfg)

	var (
		stop    atomic.Bool
		ops     atomic.Uint64
		wg      sync.WaitGroup
		sampWG  sync.WaitGroup
		samples int64
		sumUnr  int64
		peakMem int64
	)

	// Sampler: unreclaimed average and memory peak.
	sampWG.Add(1)
	go func() {
		defer sampWG.Done()
		tick := time.NewTicker(cfg.SampleEvery)
		defer tick.Stop()
		for !stop.Load() {
			<-tick.C
			u := target.Unreclaimed()
			sumUnr += u
			samples++
			if m := target.MemBytes(); m > peakMem {
				peakMem = m
			}
		}
	}()

	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(h Handle, seed uint64) {
			defer wg.Done()
			r := rng{s: seed}
			local := uint64(0)
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					k := r.intn(cfg.KeyRange)
					c := r.next() % 100
					switch cfg.Workload {
					case WriteOnly:
						if c < 50 {
							h.Insert(k, k)
						} else {
							h.Delete(k)
						}
					case ReadWrite:
						if c < 50 {
							h.Get(k)
						} else if c < 75 {
							h.Insert(k, k)
						} else {
							h.Delete(k)
						}
					default: // ReadMost
						if c < 90 {
							h.Get(k)
						} else if c < 95 {
							h.Insert(k, k)
						} else {
							h.Delete(k)
						}
					}
					local++
				}
			}
			ops.Add(local)
		}(handles[w], cfg.Seed+uint64(w)*0x1234567)
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	sampWG.Wait()
	elapsed := time.Since(start)

	res := Result{
		Target:          target.DS + "/" + target.Scheme,
		Ops:             ops.Load(),
		Duration:        elapsed,
		MopsPerSec:      float64(ops.Load()) / elapsed.Seconds() / 1e6,
		PeakUnreclaimed: target.PeakUnreclaimed(),
		PeakMemBytes:    peakMem,
	}
	if samples > 0 {
		res.AvgUnreclaimed = float64(sumUnr) / float64(samples)
	}
	return res
}

// RunLongReads is the Figure 10 scenario: half the workers run get()
// over a large pre-filled key range (long traversals for list structures)
// while the other half continuously push and pop keys below the read
// range, generating reclamation pressure right at the entry of the
// structure. It reports reader-only throughput.
func RunLongReads(target Target, cfg Config) Result {
	cfg = cfg.withDefaults()
	if cfg.Threads < 2 {
		cfg.Threads = 2
	}
	const churnSpan = 1024
	readBase := uint64(4 * churnSpan)

	readers := cfg.Threads / 2
	writers := cfg.Threads - readers
	handles := make([]Handle, cfg.Threads)
	for i := range handles {
		handles[i] = target.NewHandle()
	}
	// Prefill the read range only.
	r := rng{s: cfg.Seed ^ 0xDEADBEEF}
	for k := uint64(0); k < cfg.KeyRange; k++ {
		if r.next()%2 == 0 {
			handles[0].Insert(readBase+k, k)
		}
	}

	var (
		stop    atomic.Bool
		reads   atomic.Uint64
		wg      sync.WaitGroup
		sampWG  sync.WaitGroup
		samples int64
		sumUnr  int64
		peakMem int64
	)
	sampWG.Add(1)
	go func() {
		defer sampWG.Done()
		tick := time.NewTicker(cfg.SampleEvery)
		defer tick.Stop()
		for !stop.Load() {
			<-tick.C
			sumUnr += target.Unreclaimed()
			samples++
			if m := target.MemBytes(); m > peakMem {
				peakMem = m
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(h Handle, seed uint64) {
			defer wg.Done()
			r := rng{s: seed}
			local := uint64(0)
			for !stop.Load() {
				h.Get(readBase + r.intn(cfg.KeyRange))
				local++
			}
			reads.Add(local)
		}(handles[w], cfg.Seed+uint64(w)*7777)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(h Handle, seed uint64) {
			defer wg.Done()
			r := rng{s: seed}
			for !stop.Load() {
				k := r.intn(churnSpan)
				h.Insert(k, k)
				h.Delete(k)
			}
		}(handles[readers+w], cfg.Seed+uint64(w)*31337)
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	sampWG.Wait()
	elapsed := time.Since(start)

	res := Result{
		Target:          target.DS + "/" + target.Scheme,
		Ops:             reads.Load(),
		Duration:        elapsed,
		MopsPerSec:      float64(reads.Load()) / elapsed.Seconds() / 1e6,
		PeakUnreclaimed: target.PeakUnreclaimed(),
		PeakMemBytes:    peakMem,
	}
	if samples > 0 {
		res.AvgUnreclaimed = float64(sumUnr) / float64(samples)
	}
	finishResult(&res, target)
	return res
}

// RunWithStall is the §4.4 robustness scenario: before the normal run, a
// scheme-specific stalled participant is created via target.Stall — a
// guard that pins a critical section (EBR/PEBR/NBR) or a thread holding a
// protection (HP/HP++) and never progresses. The interesting outputs are
// PeakUnreclaimed and StalledUnreclaimed — bounded for HP/HP++/PEBR/NBR,
// unbounded for EBR — and FinalUnreclaimed, which must drain to zero for
// every reclaiming scheme once the stalled participant is released via
// target.StallRelease (recovery).
func RunWithStall(target Target, cfg Config) Result {
	if target.Stall != nil {
		target.Stall()
	}
	res := run(target, cfg)
	res.StalledUnreclaimed = target.Unreclaimed()
	if target.StallRelease != nil {
		target.StallRelease()
	}
	finishResult(&res, target)
	return res
}
