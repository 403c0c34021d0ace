// Command smrbench reproduces the figures of "Applying Hazard Pointers to
// More Concurrent Data Structures" (SPAA 2023) on this repository's Go
// implementation.
//
// Reproduce a paper figure:
//
//	smrbench -fig 8              # throughput, read-write, thread sweep
//	smrbench -fig 9              # HP vs HP++ max throughput per category
//	smrbench -fig 10             # long-running reads vs key range
//	smrbench -fig 11             # peak unreclaimed blocks, read-write
//	smrbench -fig 12..23         # appendix figures
//	smrbench -robustness hhslist # §4.4 stalled-thread scenario
//
// Regenerate the committed robustness artifact (BENCH_stall.json): one
// parked-writer cell per scheme plus the unstalled read-heavy companion:
//
//	smrbench -stalljson BENCH_stall.json -dur 2s
//
// Or run a single free-form cell:
//
//	smrbench -ds hhslist -scheme hp++ -threads 4 -range 10000 \
//	         -workload read-write -dur 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/scheme"
	"github.com/gosmr/gosmr/internal/stress"
)

func main() {
	var (
		fig         = flag.Int("fig", 0, "paper figure to reproduce (8-23)")
		robustness  = flag.String("robustness", "", "run the stalled-thread scenario for the given data structure")
		ds          = flag.String("ds", "", "data structure for a free-form run")
		schemeF     = flag.String("scheme", "hp++", "reclamation scheme for a free-form run")
		threads     = flag.Int("threads", 4, "worker count for a free-form run")
		keyRange    = flag.Uint64("range", 10000, "key range for a free-form run")
		workload    = flag.String("workload", "read-write", "workload: write-only | read-write | read-most")
		dur         = flag.Duration("dur", time.Second, "duration per benchmark cell")
		threadsCSV  = flag.String("sweep", "1,2,4,8", "thread counts for figure sweeps")
		schemesCSV  = flag.String("schemes", strings.Join(scheme.Names(nil), ","), "schemes for figure sweeps and -reclaimjson")
		lo          = flag.Uint("lo", 10, "figure 10: smallest log2 key range")
		hi          = flag.Uint("hi", 16, "figure 10: largest log2 key range")
		list        = flag.Bool("list", false, "list registered targets and exit")
		reclaimJSON = flag.String("reclaimjson", "", "write the reclaim-path benchmark report (scan microbench + per-scheme fig-8 cells) to this file")
		stallJSON   = flag.String("stalljson", "", "write the stalled-thread experiment report (per-scheme peak/final unreclaimed with a parked writer, plus unstalled read-heavy throughput) to this file")
		stallOps    = flag.Int("stallops", 0, "per-worker write-only op count for -stalljson (0 = default)")
		asJSON      = flag.Bool("json", false, "emit the free-form run's result (including smr_stats) as JSON")
		fixedCad    = flag.Int("fixedcadence", 0, "pin the classic fixed per-thread reclaim cadence (0 = shared-budget adaptive); ablation knob for per-thread vs domain-wide accounting")
	)
	flag.Parse()
	bench.FixedReclaimEvery = *fixedCad

	if *list {
		fmt.Println("data structures:", strings.Join(bench.Registered(), " "))
		fmt.Println("schemes:        ", strings.Join(scheme.Names(nil), " "))
		return
	}

	sweep := bench.SweepConfig{
		Threads:  parseInts(*threadsCSV),
		Duration: *dur,
		Schemes:  strings.Split(*schemesCSV, ","),
	}

	switch {
	case *stallJSON != "":
		f, err := os.Create(*stallJSON)
		check(err)
		check(stress.StallJSON(f, stress.StallOptions{
			Workers: *threads,
			Ops:     *stallOps,
		}, *dur))
		check(f.Close())
		fmt.Println("wrote", *stallJSON)
	case *reclaimJSON != "":
		f, err := os.Create(*reclaimJSON)
		check(err)
		check(bench.ReclaimJSON(f, strings.Split(*schemesCSV, ","), *dur))
		check(f.Close())
		fmt.Println("wrote", *reclaimJSON)
	case *robustness != "":
		check(bench.RobustnessFigure(os.Stdout, sweep, *robustness))
	case *fig != 0:
		check(runFigure(*fig, sweep, *lo, *hi))
	case *ds != "":
		wl, err := bench.ParseWorkload(*workload)
		check(err)
		t, err := bench.NewTarget(*ds, *schemeF, arena.ModeReuse)
		check(err)
		res := bench.Run(t, bench.Config{
			Threads:  *threads,
			Duration: *dur,
			Workload: wl,
			KeyRange: *keyRange,
		})
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			check(enc.Encode(res))
		} else {
			fmt.Printf("%-20s %10.3f Mops/s  ops=%d  peak-unreclaimed=%d  avg-unreclaimed=%.0f  peak-mem=%dKiB  scans=%d  freed/scan=%.0f\n",
				res.Target, res.MopsPerSec, res.Ops, res.PeakUnreclaimed, res.AvgUnreclaimed, res.PeakMemBytes/1024,
				res.Stats.Scans, res.Stats.FreedPerScan)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runFigure maps paper figure numbers to harness drivers.
func runFigure(fig int, sweep bench.SweepConfig, lo, hi uint) error {
	w := os.Stdout
	fmt.Fprintf(w, "== Figure %d ==\n", fig)
	switch fig {
	case 8, 13:
		return bench.WorkloadFigure(w, sweep, bench.ReadWrite, "throughput")
	case 9:
		return bench.Figure9(w, sweep)
	case 10:
		return bench.Figure10(w, sweep, lo, hi)
	case 11, 16:
		return bench.WorkloadFigure(w, sweep, bench.ReadWrite, "peak")
	case 12:
		return bench.WorkloadFigure(w, sweep, bench.WriteOnly, "throughput")
	case 14:
		return bench.WorkloadFigure(w, sweep, bench.ReadMost, "throughput")
	case 15:
		return bench.WorkloadFigure(w, sweep, bench.WriteOnly, "peak")
	case 17:
		return bench.WorkloadFigure(w, sweep, bench.ReadMost, "peak")
	case 18:
		return bench.WorkloadFigure(w, sweep, bench.WriteOnly, "mem")
	case 19:
		return bench.WorkloadFigure(w, sweep, bench.ReadWrite, "mem")
	case 20:
		return bench.WorkloadFigure(w, sweep, bench.ReadMost, "mem")
	case 21:
		return bench.WorkloadFigure(w, sweep, bench.WriteOnly, "avg")
	case 22:
		return bench.WorkloadFigure(w, sweep, bench.ReadWrite, "avg")
	case 23:
		return bench.WorkloadFigure(w, sweep, bench.ReadMost, "avg")
	}
	return fmt.Errorf("unknown figure %d (valid: 8-23)", fig)
}

func parseInts(csv string) []int {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		check(err)
		out = append(out, n)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrbench:", err)
		os.Exit(1)
	}
}
