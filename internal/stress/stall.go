package stress

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/scheme"
)

// This file is the first-class stalled-thread experiment (§4.4 of the
// paper, promoted from a throwaway figure to a committed, gated
// artifact). One participant is parked *mid-mutation* — caught inside a
// detect-mode deref on the write path, holding whatever pin or hazard
// announcement its scheme grants a writer — while the remaining workers
// run a deterministic write-only workload. The cell records the exact
// peak and final retired-but-unfreed counts per scheme, demonstrating:
//
//   - EBR: unbounded growth — the parked pin blocks every epoch advance,
//     so the backlog tracks total retires;
//   - HP/HP++: bounded — the parked worker protects at most its
//     announced slots;
//   - PEBR: bounded — the lagging guard is ejected;
//   - NBR: bounded — once the retired budget crosses the neutralization
//     pressure the parked record is flagged and stops gating the epoch.
//
// Unlike the duration-driven figures the workload is an exact op count,
// so the retire totals (and with them EBR's backlog) are reproducible
// across machines up to scheduling noise in who wins each key race.

// StallOptions parameterizes one stalled-thread experiment sweep.
type StallOptions struct {
	// DS is the map structure under test. Default "hmlist": the one
	// structure every scheme (including plain HP) can run.
	DS string
	// Schemes to sweep. Default: DefaultStallSchemes(DS) (nr and rc are
	// excluded — nr never frees, so "peak unreclaimed" is meaningless,
	// and rc's gauge counts deferred decrements, not nodes; pass them
	// explicitly to include them anyway).
	Schemes []string
	// Workers is the mutating worker count (the parked participant is
	// extra). Ops is the per-worker write-only op count.
	Workers int
	Ops     int
	Keys    uint64
	Seed    uint64
}

func (o StallOptions) withDefaults() StallOptions {
	if o.DS == "" {
		o.DS = "hmlist"
	}
	if len(o.Schemes) == 0 {
		o.Schemes = DefaultStallSchemes(o.DS)
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Ops <= 0 {
		o.Ops = 20000
	}
	if o.Keys == 0 {
		o.Keys = 64
	}
	if o.Seed == 0 {
		o.Seed = 0x57A11
	}
	return o
}

// DefaultStallSchemes lists the schemes of the table whose backlog the
// stall experiment measures (scheme.Desc.Stalled) and that apply to ds,
// in table order.
func DefaultStallSchemes(ds string) []string {
	return scheme.Names(func(s *scheme.Desc) bool {
		return s.Stalled != scheme.Unmeasured && bench.Applicable(ds, s.Name)
	})
}

// StallCell is one scheme's stalled-thread measurement.
type StallCell struct {
	DS      string `json:"ds"`
	Scheme  string `json:"scheme"`
	Workers int    `json:"workers"`
	Ops     int    `json:"ops"`
	// ParkedStall reports whether the participant actually parked inside
	// a deref (false means the trap timed out and the cell measured an
	// unstalled run — treat its numbers as invalid).
	ParkedStall bool `json:"parked_stall"`
	// PeakUnreclaimed is the exact high-water retired-but-unfreed count
	// with the participant parked; StalledUnreclaimed the count at the
	// moment the workload finished (parked still held); FinalUnreclaimed
	// the count after release and a full drain — every reclaiming scheme
	// must reach 0 here.
	PeakUnreclaimed    int64 `json:"peak_unreclaimed"`
	StalledUnreclaimed int64 `json:"stalled_unreclaimed"`
	FinalUnreclaimed   int64 `json:"final_unreclaimed"`
	TotalRetired       int64 `json:"total_retired"`
	TotalFreed         int64 `json:"total_freed"`
	// Ejections (PEBR) and Neutralizations/NeutralizedStalled (NBR) show
	// which mechanism kept the bound.
	Ejections          int64 `json:"ejections,omitempty"`
	Neutralizations    int64 `json:"neutralizations,omitempty"`
	NeutralizedStalled int64 `json:"neutralized_stalled,omitempty"`
	UAF                int64 `json:"uaf"`
	DoubleFree         int64 `json:"double_free"`
	ElapsedMS          int64 `json:"elapsed_ms"`
}

// StallThroughputCell is one unstalled read-heavy throughput cell: the
// cost-of-robustness companion (an NBR that was robust but slow would be
// no answer at all).
type StallThroughputCell struct {
	DS         string  `json:"ds"`
	Scheme     string  `json:"scheme"`
	Threads    int     `json:"threads"`
	Workload   string  `json:"workload"`
	KeyRange   uint64  `json:"key_range"`
	MopsPerSec float64 `json:"mops_per_sec"`
}

// StallReport is the schema of BENCH_stall.json.
type StallReport struct {
	GeneratedBy string                `json:"generated_by"`
	Cells       []StallCell           `json:"cells"`
	Throughput  []StallThroughputCell `json:"throughput,omitempty"`
}

// RunStallCell runs the stalled-thread experiment for one scheme: park a
// writer mid-mutation, run the deterministic write-only workload, read
// the peak, release the parked writer, drain, and read the final count.
func RunStallCell(scheme string, opts StallOptions) (StallCell, error) {
	opts = opts.withDefaults()
	cell := StallCell{DS: opts.DS, Scheme: scheme, Workers: opts.Workers, Ops: opts.Ops}
	start := time.Now()

	// Detect mode is required: the park trap lives in the arena's
	// detect-mode deref hook.
	target, err := bench.NewTarget(opts.DS, scheme, arena.ModeDetect)
	if err != nil {
		return cell, err
	}
	in := newInjector(0)
	for _, p := range target.Pools {
		p.SetCount()
		p.SetDerefHook(in.hook)
	}

	handles := make([]bench.Handle, opts.Workers)
	for w := range handles {
		handles[w] = target.NewHandle()
	}
	for k := uint64(0); k < opts.Keys; k += 2 {
		handles[0].Insert(k, k+1000)
	}

	// Park one extra participant mid-insert; the key sits past the whole
	// worked range so the traversal derefs the shared prefix first.
	parkedH := target.NewHandle()
	in.arm()
	var stallWG sync.WaitGroup
	stallWG.Add(1)
	go func() {
		defer stallWG.Done()
		parkedH.Insert(opts.Keys+1, 42)
	}()
	cell.ParkedStall = in.awaitParked(500 * time.Millisecond)

	var wg sync.WaitGroup
	for w := range handles {
		wg.Add(1)
		go func(w int, h bench.Handle) {
			defer wg.Done()
			r := rng{s: opts.Seed + uint64(w)*0x9E3779B9}
			for i := 0; i < opts.Ops; i++ {
				k := r.next() % opts.Keys
				if r.next()%2 == 0 {
					h.Insert(k, r.next())
				} else {
					h.Delete(k)
				}
			}
		}(w, handles[w])
	}
	wg.Wait()

	cell.StalledUnreclaimed = target.Unreclaimed()
	cell.PeakUnreclaimed = target.PeakUnreclaimed()

	in.releaseParked()
	stallWG.Wait()
	for _, p := range target.Pools {
		p.SetDerefHook(nil)
	}
	target.Finish()
	cell.FinalUnreclaimed = target.Unreclaimed()

	st := target.Stats()
	cell.TotalRetired = st.TotalRetired
	cell.TotalFreed = st.TotalFreed
	cell.Ejections = st.Ejections
	cell.Neutralizations = st.Neutralizations
	cell.NeutralizedStalled = st.NeutralizedStalled
	for _, p := range target.Pools {
		ps := p.Stats()
		cell.UAF += ps.UAF
		cell.DoubleFree += ps.DoubleFree
	}
	cell.ElapsedMS = time.Since(start).Milliseconds()
	return cell, nil
}

// stallThroughputRange is the key range of the unstalled read-heavy
// companion cell: 2^14, the midpoint of the paper's fig-10 long-reads
// range sweep. At this scale traversal is memory-bound and the robust
// schemes' per-node announcement (one seq-cst store in NBR's Track,
// identical in PEBR's) hides under the cache misses; on fully
// cache-resident lists the same announcement costs ~2ns per node and
// the robust schemes trail EBR by ~20% — the honest price of
// park-anywhere robustness without OS signals.
const stallThroughputRange = 1 << 14

// StallJSON writes a BENCH_stall.json-shaped report to w: one stalled
// cell per scheme plus the unstalled read-heavy throughput companion
// (hhslist read-most — the cell the paper uses to show the robustness
// schemes' overhead on the read path; hmlist carries the plain-HP row).
func StallJSON(w io.Writer, opts StallOptions, dur time.Duration) error {
	opts = opts.withDefaults()
	report := StallReport{GeneratedBy: "smrbench -stalljson"}
	for _, scheme := range opts.Schemes {
		cell, err := RunStallCell(scheme, opts)
		if err != nil {
			return fmt.Errorf("stall cell %s/%s: %w", opts.DS, scheme, err)
		}
		report.Cells = append(report.Cells, cell)
	}
	for _, scheme := range opts.Schemes {
		ds := "hhslist"
		if !bench.Applicable(ds, scheme) {
			ds = "hmlist"
		}
		t, err := bench.NewTarget(ds, scheme, arena.ModeReuse)
		if err != nil {
			return err
		}
		res := bench.Run(t, bench.Config{
			Threads:  opts.Workers,
			Duration: dur,
			Workload: bench.ReadMost,
			KeyRange: stallThroughputRange,
		})
		report.Throughput = append(report.Throughput, StallThroughputCell{
			DS:         ds,
			Scheme:     scheme,
			Threads:    opts.Workers,
			Workload:   bench.ReadMost.String(),
			KeyRange:   stallThroughputRange,
			MopsPerSec: res.MopsPerSec,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
