// Package gosmr's root benchmark suite maps every table and figure of the
// HP++ paper's evaluation (§5, Appendix C) onto testing.B benchmarks.
// Each benchmark family reports, besides ns/op, the reclamation metrics
// the corresponding figure plots:
//
//	peak-unreclaimed  — Figures 11, 15-17
//	avg-unreclaimed   — Figures 21-23 (here: final unreclaimed after run)
//	peak-mem-KiB      — Figures 18-20
//
// The full parameter sweeps (thread counts, key ranges) that regenerate
// the figures' axes live in cmd/smrbench; these benchmarks pin one
// representative configuration per figure so `go test -bench` exercises
// every experiment end to end.
package gosmr

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/scheme"
)

// runOps drives target with the given workload mix from b.N parallel
// iterations and reports the reclamation metrics.
func runOps(b *testing.B, ds, scheme string, keyRange uint64, wl bench.Workload) {
	target, err := bench.NewTarget(ds, scheme, arena.ModeReuse)
	if err != nil {
		b.Skipf("not applicable: %v", err)
	}
	var mu sync.Mutex
	newHandle := func() bench.Handle {
		mu.Lock()
		defer mu.Unlock()
		return target.NewHandle()
	}
	bench.Prefill(newHandle(), bench.Config{KeyRange: keyRange})
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := newHandle()
		s := seed.Add(0x9E3779B97F4A7C15)
		for pb.Next() {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			k := (s >> 16) % keyRange
			c := (s >> 48) % 100
			switch wl {
			case bench.WriteOnly:
				if c < 50 {
					h.Insert(k, k)
				} else {
					h.Delete(k)
				}
			case bench.ReadWrite:
				if c < 50 {
					h.Get(k)
				} else if c < 75 {
					h.Insert(k, k)
				} else {
					h.Delete(k)
				}
			default:
				if c < 90 {
					h.Get(k)
				} else if c < 95 {
					h.Insert(k, k)
				} else {
					h.Delete(k)
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(target.PeakUnreclaimed()), "peak-unreclaimed")
	b.ReportMetric(float64(target.MemBytes())/1024, "peak-mem-KiB")
	target.Finish()
	b.ReportMetric(float64(target.Unreclaimed()), "final-unreclaimed")
}

// allTargets enumerates every (ds, scheme) cell of Figures 8 and 11-23.
func allTargets(b *testing.B, wl bench.Workload, big bool) {
	for _, ds := range bench.Registered() {
		for _, scheme := range bench.SchemesFor(ds) {
			keyRange := uint64(128)
			if ds == "hmlist" || ds == "hhslist" {
				keyRange = 16
			}
			if big {
				keyRange *= 100 // lists: 1600≈paper's 10K scale; others 12800
			}
			b.Run(ds+"/"+scheme, func(b *testing.B) {
				runOps(b, ds, scheme, keyRange, wl)
			})
		}
	}
}

// BenchmarkFig08ReadWrite is Figure 8 (and Figure 13): read-write
// workload, big key range, every structure and scheme. peak-unreclaimed
// doubles as Figure 11/16, peak-mem-KiB as Figure 19.
func BenchmarkFig08ReadWrite(b *testing.B) { allTargets(b, bench.ReadWrite, true) }

// BenchmarkFig12WriteOnly is Figure 12 (throughput), 15 (peak
// unreclaimed), 18 (memory), 21 (avg unreclaimed): write-only workload.
func BenchmarkFig12WriteOnly(b *testing.B) { allTargets(b, bench.WriteOnly, true) }

// BenchmarkFig14ReadMost is Figure 14/17/20/23: read-most workload.
func BenchmarkFig14ReadMost(b *testing.B) { allTargets(b, bench.ReadMost, true) }

// BenchmarkFig09Contended is Figure 9: the HP-compatible structure versus
// the HP++-only structure of each category under heavy contention (small
// key range, write-heavy) — the payoff of optimistic traversal.
func BenchmarkFig09Contended(b *testing.B) {
	cells := []struct{ ds, scheme string }{
		{"hmlist", "hp"}, {"hhslist", "hp++"},
		{"efrbtree", "hp"}, {"nmtree", "hp++"},
	}
	for _, c := range cells {
		b.Run(c.ds+"/"+c.scheme, func(b *testing.B) {
			keyRange := uint64(16)
			if c.ds != "hmlist" && c.ds != "hhslist" {
				keyRange = 128
			}
			runOps(b, c.ds, c.scheme, keyRange, bench.ReadWrite)
		})
	}
}

// BenchmarkFig10LongReads is Figure 10: get() throughput over a large
// pre-filled list while writers churn the entry region. HMList carries
// HP; HHSList carries the optimistic schemes.
func BenchmarkFig10LongReads(b *testing.B) {
	const keyRange = 1 << 12
	const churn = 256
	for _, c := range []struct{ ds, scheme string }{
		{"hmlist", "hp"}, {"hhslist", "ebr"}, {"hhslist", "pebr"},
		{"hhslist", "hp++"}, {"hhslist", "rc"}, {"hhslist", "nr"},
	} {
		b.Run(c.ds+"/"+c.scheme, func(b *testing.B) {
			target, err := bench.NewTarget(c.ds, c.scheme, arena.ModeReuse)
			if err != nil {
				b.Skipf("not applicable: %v", err)
			}
			var mu sync.Mutex
			newHandle := func() bench.Handle {
				mu.Lock()
				defer mu.Unlock()
				return target.NewHandle()
			}
			h0 := newHandle()
			for k := uint64(0); k < keyRange; k += 2 {
				h0.Insert(4*churn+k, k)
			}
			// Background writer churning the head region.
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func(h bench.Handle) {
				defer wg.Done()
				s := uint64(12345)
				for !stop.Load() {
					s ^= s << 13
					s ^= s >> 7
					s ^= s << 17
					k := (s >> 24) % churn
					h.Insert(k, k)
					h.Delete(k)
				}
			}(newHandle())
			var seed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := newHandle()
				s := seed.Add(777)
				for pb.Next() {
					s ^= s << 13
					s ^= s >> 7
					s ^= s << 17
					h.Get(4*churn + (s>>13)%keyRange)
				}
			})
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(target.PeakUnreclaimed()), "peak-unreclaimed")
			target.Finish()
		})
	}
}

// BenchmarkAblationEpochFence compares Algorithm 3 (eager frontier
// revocation) against Algorithm 5 (epoched heavy fence, lazy revocation)
// on the Harris list — the §3.4 optimization the paper motivates.
func BenchmarkAblationEpochFence(b *testing.B) {
	hpp := scheme.Names(func(s *scheme.Desc) bool { return s.Family == scheme.HPP })
	for _, name := range hpp {
		b.Run(name, func(b *testing.B) {
			runOps(b, "hhslist", name, 1600, bench.ReadWrite)
		})
	}
}

// BenchmarkRobustnessStall is the §4.4 experiment: write-only churn with
// one stalled participant. Compare peak-unreclaimed between EBR
// (unbounded growth), the bounded schemes and the nr baseline.
func BenchmarkRobustnessStall(b *testing.B) {
	stallSchemes := scheme.Names(func(s *scheme.Desc) bool {
		return s.Stalled != scheme.Unmeasured || s.NeverFrees
	})
	for _, name := range stallSchemes {
		b.Run("hhslist/"+name, func(b *testing.B) {
			target, err := bench.NewTarget("hhslist", name, arena.ModeReuse)
			if err != nil {
				b.Skipf("not applicable: %v", err)
			}
			if target.Stall != nil {
				target.Stall()
			}
			var mu sync.Mutex
			newHandle := func() bench.Handle {
				mu.Lock()
				defer mu.Unlock()
				return target.NewHandle()
			}
			bench.Prefill(newHandle(), bench.Config{KeyRange: 1600})
			var seed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := newHandle()
				s := seed.Add(0xABCDEF)
				for pb.Next() {
					s ^= s << 13
					s ^= s >> 7
					s ^= s << 17
					k := (s >> 24) % 1600
					if (s>>33)&1 == 0 {
						h.Insert(k, k)
					} else {
						h.Delete(k)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(target.PeakUnreclaimed()), "peak-unreclaimed")
		})
	}
}

// BenchmarkSchemePrimitives microbenchmarks the protection primitives
// themselves: the cost TryProtect adds over plain HP protection and over
// an EBR pin/unpin pair.
func BenchmarkSchemePrimitives(b *testing.B) {
	b.Run("hhslist/hp++/get-hit", func(b *testing.B) {
		target, _ := bench.NewTarget("hhslist", "hp++", arena.ModeReuse)
		h := target.NewHandle()
		for k := uint64(0); k < 64; k++ {
			h.Insert(k, k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Get(uint64(i) & 63)
		}
	})
	b.Run("hhslist/ebr/get-hit", func(b *testing.B) {
		target, _ := bench.NewTarget("hhslist", "ebr", arena.ModeReuse)
		h := target.NewHandle()
		for k := uint64(0); k < 64; k++ {
			h.Insert(k, k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Get(uint64(i) & 63)
		}
	})
	b.Run("hmlist/hp/get-hit", func(b *testing.B) {
		target, _ := bench.NewTarget("hmlist", "hp", arena.ModeReuse)
		h := target.NewHandle()
		for k := uint64(0); k < 64; k++ {
			h.Insert(k, k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Get(uint64(i) & 63)
		}
	})
}
