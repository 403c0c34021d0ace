// Command benchcompare diffs two BENCH_reclaim.json reports and fails if
// the fresh run regresses beyond a tolerance band. It guards the pinned
// reclaim-scan microbench (the repo's perf contract: sorted_ns_per_op at
// the 64-hazard / 4096-retired point) and, more loosely, the per-scheme
// throughput cells.
//
//	benchcompare -base BENCH_reclaim.json -fresh results/BENCH_reclaim.fresh.json
//
// Exit status: 0 within tolerance, 1 on regression, 2 on usage/IO error.
//
// Throughput cells are noisy on shared CI runners, so they get a wider
// default band than the microbench and only warn unless -strictcells is
// set. The scan microbench is single-threaded and tight, so it is always
// enforced.
//
// With -stall it instead validates a BENCH_stall.json stalled-thread
// report against absolute invariants rather than a fractional band —
// robustness is a bound, not a trend:
//
//	benchcompare -stall BENCH_stall.json
//
// Gates: every robust scheme's peak unreclaimed stays under -stallbound;
// EBR's peak is at least -stallratio times NBR's (the experiment must
// actually demonstrate the unbounded-vs-bounded split); every cell's
// final unreclaimed drains to zero after release; and NBR's unstalled
// read-heavy throughput is within -stallnear of EBR's (warn-only, noisy).
//
// With -conns it validates a BENCH_conns.json idle-fleet report (from
// scripts/bench_conns.sh) against absolute bounds plus one relative
// band:
//
//	benchcompare -conns BENCH_conns.json
//
// Gates: the netpoll cell's goroutine count stays under -gorbound (i.e.
// independent of the parked conn count), its post-GC memory cost stays
// under -connbytes per idle conn, its live fast-path handle census
// stays under -handlebound (the per-poller handle rule: O(pollers ×
// shards), never O(conns)), and — when the report also carries a
// goroutine-mode baseline cell — the netpoll hot-subset GET p99 is
// within -connp99band of the baseline's (warn-only unless
// -strictcells, shared-runner latency is noisy).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/scheme"
	"github.com/gosmr/gosmr/internal/stress"
)

func main() {
	var (
		base        = flag.String("base", "BENCH_reclaim.json", "committed baseline report")
		fresh       = flag.String("fresh", "", "freshly generated report to compare against the baseline")
		tolerance   = flag.Float64("tolerance", 0.05, "allowed fractional regression for the scan microbench (0.05 = 5%)")
		cellTol     = flag.Float64("celltolerance", 0.25, "allowed fractional throughput drop per benchmark cell")
		strictCells = flag.Bool("strictcells", false, "fail (not just warn) on cell throughput regressions")
		stall       = flag.String("stall", "", "validate a BENCH_stall.json stalled-thread report against absolute bounds instead of diffing reports")
		stallBound  = flag.Int64("stallbound", 4096, "peak-unreclaimed ceiling for the robust schemes' stall cells")
		stallRatio  = flag.Float64("stallratio", 10, "minimum EBR-peak / NBR-peak ratio the stall report must demonstrate")
		stallNear   = flag.Float64("stallnear", 0.15, "warn when NBR's unstalled read-heavy throughput trails EBR's by more than this fraction")
		connsRep    = flag.String("conns", "", "validate a BENCH_conns.json idle-fleet report against absolute bounds instead of diffing reports")
		gorBound    = flag.Int("gorbound", 256, "goroutine ceiling for netpoll idle-fleet cells (must be independent of conn count)")
		connBytes   = flag.Float64("connbytes", 16384, "post-GC server bytes-per-idle-conn ceiling for netpoll cells")
		handleBound = flag.Int("handlebound", 256, "live fast-path handle ceiling for netpoll cells (O(pollers x shards), never O(conns))")
		connP99Band = flag.Float64("connp99band", 1.0, "allowed fractional hot-subset GET p99 excess of the netpoll cell over the goroutine baseline (warn-only unless -strictcells)")
	)
	flag.Parse()
	if *stall != "" {
		os.Exit(validateStall(*stall, *stallBound, *stallRatio, *stallNear))
	}
	if *connsRep != "" {
		os.Exit(validateConns(*connsRep, *gorBound, *connBytes, *handleBound, *connP99Band, *strictCells))
	}
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -fresh is required")
		flag.Usage()
		os.Exit(2)
	}

	baseRep, err := load(*base)
	if err != nil {
		fatal(err)
	}
	freshRep, err := load(*fresh)
	if err != nil {
		fatal(err)
	}

	failed := false

	// The scan microbench is only comparable if both reports pinned the
	// same shape. Reports with no scan section at all (both shapes zero —
	// kvload's service-layer BENCH_kvsvc.json has no in-process scan
	// microbench) skip the gate instead of failing it.
	if baseRep.Scan.Hazards == 0 && baseRep.Scan.Retired == 0 &&
		freshRep.Scan.Hazards == 0 && freshRep.Scan.Retired == 0 {
		fmt.Println("scan microbench: absent from both reports (skipped)")
	} else {
		if baseRep.Scan.Hazards != freshRep.Scan.Hazards || baseRep.Scan.Retired != freshRep.Scan.Retired {
			fmt.Fprintf(os.Stderr, "benchcompare: scan shapes differ (base %d/%d, fresh %d/%d)\n",
				baseRep.Scan.Hazards, baseRep.Scan.Retired, freshRep.Scan.Hazards, freshRep.Scan.Retired)
			os.Exit(2)
		}
		delta := (freshRep.Scan.SortedNsPerOp - baseRep.Scan.SortedNsPerOp) / baseRep.Scan.SortedNsPerOp
		status := "ok"
		if delta > *tolerance {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("scan sorted_ns_per_op: base=%.0f fresh=%.0f delta=%+.1f%% (tolerance %.0f%%) %s\n",
			baseRep.Scan.SortedNsPerOp, freshRep.Scan.SortedNsPerOp, 100*delta, 100**tolerance, status)
	}

	// Index fresh cells by (ds, scheme, threads, workload).
	type key struct {
		ds, scheme, workload string
		threads              int
	}
	freshCells := map[key]bench.CellResult{}
	for _, c := range freshRep.Cells {
		freshCells[key{c.DS, c.Scheme, c.Workload, c.Threads}] = c
	}
	for _, b := range baseRep.Cells {
		f, ok := freshCells[key{b.DS, b.Scheme, b.Workload, b.Threads}]
		if !ok {
			fmt.Printf("cell %s/%s: missing from fresh report (skipped)\n", b.DS, b.Scheme)
			continue
		}
		drop := (b.MopsPerSec - f.MopsPerSec) / b.MopsPerSec
		status := "ok"
		if drop > *cellTol {
			if *strictCells {
				status = "REGRESSION"
				failed = true
			} else {
				status = "WARN"
			}
		}
		fmt.Printf("cell %s/%s t=%d: base=%.3f fresh=%.3f Mops/s drop=%+.1f%% %s\n",
			b.DS, b.Scheme, b.Threads, b.MopsPerSec, f.MopsPerSec, 100*drop, status)
	}

	if failed {
		os.Exit(1)
	}
}

// validateStall enforces the stalled-thread report's invariants and
// returns the process exit code.
func validateStall(path string, bound int64, ratio, near float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		return 2
	}
	var rep stress.StallReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %s: %v\n", path, err)
		return 2
	}
	if len(rep.Cells) == 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %s: no stall cells\n", path)
		return 2
	}

	failed := false
	peak := map[string]int64{}
	for _, c := range rep.Cells {
		// The absolute peak bound gates the schemes the table marks
		// bounded under a stall: not EBR, whose whole point in the report
		// is to grow without bound.
		s, _ := scheme.Lookup(c.Scheme)
		bounded := s != nil && s.Stalled == scheme.Bounded
		status := "ok"
		switch {
		case !c.ParkedStall:
			// The trap timed out: the cell measured an unstalled run and
			// none of its numbers mean anything.
			status = "FAIL (participant never parked)"
			failed = true
		case c.UAF > 0 || c.DoubleFree > 0:
			status = fmt.Sprintf("FAIL (uaf=%d double-free=%d)", c.UAF, c.DoubleFree)
			failed = true
		case c.FinalUnreclaimed != 0:
			status = fmt.Sprintf("FAIL (final unreclaimed %d != 0 after release)", c.FinalUnreclaimed)
			failed = true
		case bounded && c.PeakUnreclaimed > bound:
			status = fmt.Sprintf("FAIL (peak %d > bound %d)", c.PeakUnreclaimed, bound)
			failed = true
		}
		fmt.Printf("stall %s/%s: peak=%d stalled=%d final=%d retired=%d %s\n",
			c.DS, c.Scheme, c.PeakUnreclaimed, c.StalledUnreclaimed, c.FinalUnreclaimed, c.TotalRetired, status)
		peak[c.Scheme] = c.PeakUnreclaimed
	}

	ebrPeak, hasEBR := peak["ebr"]
	if nbrPeak := peak["nbr"]; hasEBR && nbrPeak > 0 {
		r := float64(ebrPeak) / float64(nbrPeak)
		status := "ok"
		if r < ratio {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("stall ebr/nbr peak ratio: %.1fx (minimum %.0fx) %s\n", r, ratio, status)
	}

	tp := map[string]float64{}
	for _, c := range rep.Throughput {
		tp[c.Scheme] = c.MopsPerSec
	}
	if ebr, nbr := tp["ebr"], tp["nbr"]; ebr > 0 && nbr > 0 {
		gap := (ebr - nbr) / ebr
		status := "ok"
		if gap > near {
			status = "WARN"
		}
		fmt.Printf("unstalled read-heavy throughput: ebr=%.3f nbr=%.3f gap=%+.1f%% (near %.0f%%) %s\n",
			ebr, nbr, 100*gap, 100*near, status)
	}

	if failed {
		return 1
	}
	return 0
}

// validateConns enforces the idle-fleet report's invariants and returns
// the process exit code. Netpoll cells (netpoll_kind set) carry the
// absolute bounds; a goroutine-mode cell with the same idle_conns, if
// present, anchors the relative hot-p99 band.
func validateConns(path string, gorBound int, connBytes float64, handleBound int, p99Band float64, strict bool) int {
	rep, err := load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		return 2
	}
	var netpollCells, baseCells []bench.CellResult
	for _, c := range rep.Cells {
		if c.IdleConns == 0 {
			continue
		}
		if c.NetpollKind != "" {
			netpollCells = append(netpollCells, c)
		} else {
			baseCells = append(baseCells, c)
		}
	}
	if len(netpollCells) == 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %s: no netpoll idle-fleet cells\n", path)
		return 2
	}

	// Arena UAF/double-free zero-ness is enforced by kvload itself before
	// it writes a cell, so a report that exists at all is violation-free;
	// the gates here are the capacity bounds.
	failed := false
	for _, c := range netpollCells {
		status := "ok"
		switch {
		case c.Goroutines > gorBound:
			status = fmt.Sprintf("FAIL (goroutines %d > bound %d: not conn-independent)", c.Goroutines, gorBound)
			failed = true
		case c.BytesPerConn > connBytes:
			status = fmt.Sprintf("FAIL (bytes/conn %.0f > bound %.0f)", c.BytesPerConn, connBytes)
			failed = true
		case c.LiveHandles > handleBound:
			status = fmt.Sprintf("FAIL (live handles %d > bound %d: handle census scales with conns)", c.LiveHandles, handleBound)
			failed = true
		}
		fmt.Printf("conns %s/%s idle=%d: goroutines=%d bytes/conn=%.0f handles=%d p99(get)=%.1fµs %s\n",
			c.NetpollKind, c.Scheme, c.IdleConns, c.Goroutines, c.BytesPerConn, c.LiveHandles, c.P99GetUs, status)
	}

	// Hot-subset p99 band vs the goroutine baseline, matched on scheme.
	// An idle fleet must not make the hot path slower than the same
	// traffic served by dedicated goroutines (within a generous band —
	// poller dispatch adds some latency by design).
	for _, np := range netpollCells {
		for _, b := range baseCells {
			if b.Scheme != np.Scheme || b.P99GetUs <= 0 || np.P99GetUs <= 0 {
				continue
			}
			excess := (np.P99GetUs - b.P99GetUs) / b.P99GetUs
			status := "ok"
			if excess > p99Band {
				if strict {
					status = "REGRESSION"
					failed = true
				} else {
					status = "WARN"
				}
			}
			fmt.Printf("conns hot p99(get): netpoll=%.1fµs baseline=%.1fµs excess=%+.1f%% (band %.0f%%) %s\n",
				np.P99GetUs, b.P99GetUs, 100*excess, 100*p99Band, status)
		}
	}

	if failed {
		return 1
	}
	return 0
}

func load(path string) (bench.ReclaimReport, error) {
	var r bench.ReclaimReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompare:", err)
	os.Exit(2)
}
