package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/scheme"
)

// Matrix is one figure panel: rows are a swept parameter, columns are
// schemes, cells a metric.
type Matrix struct {
	Title    string
	RowLabel string
	Rows     []string
	Cols     []string
	Cells    [][]float64 // NaN = not applicable
}

// Write renders the matrix as an aligned text table.
func (m *Matrix) Write(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", m.Title)
	fmt.Fprintf(w, "%-10s", m.RowLabel)
	for _, c := range m.Cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
	for i, r := range m.Rows {
		fmt.Fprintf(w, "%-10s", r)
		for j := range m.Cols {
			v := m.Cells[i][j]
			if math.IsNaN(v) {
				fmt.Fprintf(w, "%12s", "n/a")
			} else if v >= 1000 {
				fmt.Fprintf(w, "%12.0f", v)
			} else {
				fmt.Fprintf(w, "%12.3f", v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// SweepConfig parameterizes the figure drivers.
type SweepConfig struct {
	Threads  []int
	Duration time.Duration
	Schemes  []string
	// DSes defaults to every registered data structure.
	DSes []string
}

func (s SweepConfig) withDefaults() SweepConfig {
	if len(s.Threads) == 0 {
		s.Threads = []int{1, 2, 4, 8}
	}
	if s.Duration <= 0 {
		s.Duration = time.Second
	}
	if len(s.Schemes) == 0 {
		s.Schemes = scheme.Names(nil)
	}
	if len(s.DSes) == 0 {
		s.DSes = Registered()
	}
	return s
}

// Registered returns the data structures whose targets are available.
func Registered() []string {
	var out []string
	for _, ds := range DataStructures() {
		if _, err := NewTarget(ds, "ebr", arena.ModeReuse); err == nil {
			out = append(out, ds)
		}
	}
	return out
}

// rangeFor returns the paper's small/big key ranges per structure class.
func rangeFor(ds string, big bool) uint64 {
	list := ds == "hmlist" || ds == "hhslist"
	switch {
	case list && big:
		return 10000
	case list:
		return 16
	case big:
		return 100000
	default:
		return 128
	}
}

// metric selects which Result field a figure reports.
type metric struct {
	name string
	get  func(Result) float64
}

var (
	metricThroughput = metric{"throughput (Mops/s)", func(r Result) float64 { return r.MopsPerSec }}
	metricPeakUnrecl = metric{"peak unreclaimed blocks", func(r Result) float64 { return float64(r.PeakUnreclaimed) }}
	metricAvgUnrecl  = metric{"avg unreclaimed blocks", func(r Result) float64 { return r.AvgUnreclaimed }}
	metricPeakMem    = metric{"peak memory (KiB)", func(r Result) float64 { return float64(r.PeakMemBytes) / 1024 }}
)

// sweepThreads runs one DS across schemes and thread counts.
func sweepThreads(ds string, cfg SweepConfig, wl Workload, keyRange uint64, m metric) Matrix {
	out := Matrix{
		Title:    fmt.Sprintf("%s — %s, %s, range %d", ds, m.name, wl, keyRange),
		RowLabel: "threads",
		Cols:     cfg.Schemes,
	}
	for _, th := range cfg.Threads {
		row := make([]float64, len(cfg.Schemes))
		for j, sch := range cfg.Schemes {
			t, err := NewTarget(ds, sch, arena.ModeReuse)
			if err != nil {
				row[j] = math.NaN()
				continue
			}
			res := Run(t, Config{
				Threads:  th,
				Duration: cfg.Duration,
				Workload: wl,
				KeyRange: keyRange,
			})
			row[j] = m.get(res)
		}
		out.Rows = append(out.Rows, fmt.Sprint(th))
		out.Cells = append(out.Cells, row)
	}
	return out
}

// WorkloadFigure renders one appendix-style figure: the given metric for
// every registered data structure under one workload with big key ranges.
// It covers Figures 8 and 11-23 of the paper:
//
//	throughput: Fig 8/13 (read-write), 12 (write-only), 14 (read-most)
//	peak unreclaimed: Fig 11/16, 15, 17
//	peak memory: Fig 19, 18, 20
//	avg unreclaimed: Fig 22, 21, 23
func WorkloadFigure(w io.Writer, cfg SweepConfig, wl Workload, what string) error {
	cfg = cfg.withDefaults()
	var m metric
	switch what {
	case "throughput":
		m = metricThroughput
	case "peak":
		m = metricPeakUnrecl
	case "avg":
		m = metricAvgUnrecl
	case "mem":
		m = metricPeakMem
	default:
		return fmt.Errorf("bench: unknown metric %q", what)
	}
	for _, ds := range cfg.DSes {
		mx := sweepThreads(ds, cfg, wl, rangeFor(ds, true), m)
		mx.Write(w)
	}
	return nil
}

// Figure9 compares the best throughput achievable with original HP
// (HMList, EFRBTree) against HP++ (HHSList, NMTree) per structure
// category and key range — the "optimistic traversal pays" figure.
func Figure9(w io.Writer, cfg SweepConfig) error {
	cfg = cfg.withDefaults()
	type pair struct {
		category string
		hpDS     string
		hppDS    string
	}
	pairs := []pair{{"list", "hmlist", "hhslist"}}
	if contains(Registered(), "nmtree") && contains(Registered(), "efrbtree") {
		pairs = append(pairs, pair{"tree", "efrbtree", "nmtree"})
	}
	for _, p := range pairs {
		out := Matrix{
			Title:    fmt.Sprintf("Figure 9 (%s): max throughput (Mops/s) over threads %v, read-write", p.category, cfg.Threads),
			RowLabel: "range",
			Cols:     []string{"HP(" + p.hpDS + ")", "HP++(" + p.hppDS + ")"},
		}
		for _, big := range []bool{false, true} {
			row := make([]float64, 2)
			row[0] = maxThroughput(p.hpDS, "hp", cfg, rangeFor(p.hpDS, big))
			row[1] = maxThroughput(p.hppDS, "hp++", cfg, rangeFor(p.hppDS, big))
			label := "small"
			if big {
				label = "big"
			}
			out.Rows = append(out.Rows, label)
			out.Cells = append(out.Cells, row)
		}
		out.Write(w)
	}
	return nil
}

func maxThroughput(ds, scheme string, cfg SweepConfig, keyRange uint64) float64 {
	best := math.NaN()
	for _, th := range cfg.Threads {
		t, err := NewTarget(ds, scheme, arena.ModeReuse)
		if err != nil {
			return math.NaN()
		}
		res := Run(t, Config{Threads: th, Duration: cfg.Duration, Workload: ReadWrite, KeyRange: keyRange})
		if math.IsNaN(best) || res.MopsPerSec > best {
			best = res.MopsPerSec
		}
	}
	return best
}

// Figure10 measures long-running read throughput versus key-range size:
// readers issue get() over ranges 2^lo..2^hi while writers churn the head
// of the structure. HMList carries the HP series (HHS lists cannot use
// HP); HHSList carries every other scheme.
func Figure10(w io.Writer, cfg SweepConfig, lo, hi uint) error {
	cfg = cfg.withDefaults()
	schemes := cfg.Schemes
	out := Matrix{
		Title:    fmt.Sprintf("Figure 10: long-running reads (Mops/s), %d threads", maxInt(2, cfg.Threads[len(cfg.Threads)-1])),
		RowLabel: "log2range",
		Cols:     schemes,
	}
	threads := maxInt(2, cfg.Threads[len(cfg.Threads)-1])
	for e := lo; e <= hi; e++ {
		row := make([]float64, len(schemes))
		for j, sch := range schemes {
			ds := "hhslist"
			if sch == "hp" {
				ds = "hmlist"
			}
			t, err := NewTarget(ds, sch, arena.ModeReuse)
			if err != nil {
				row[j] = math.NaN()
				continue
			}
			res := RunLongReads(t, Config{
				Threads:  threads,
				Duration: cfg.Duration,
				KeyRange: 1 << e,
			})
			row[j] = res.MopsPerSec
		}
		out.Rows = append(out.Rows, fmt.Sprint(e))
		out.Cells = append(out.Cells, row)
	}
	out.Write(w)
	return nil
}

// RobustnessFigure runs the §4.4 stalled-thread scenario for one DS: the
// peak unreclaimed count per scheme with a stalled participant, showing
// EBR's unbounded growth against the bounded schemes.
func RobustnessFigure(w io.Writer, cfg SweepConfig, ds string) error {
	cfg = cfg.withDefaults()
	out := Matrix{
		Title:    fmt.Sprintf("Robustness (§4.4): peak unreclaimed with one stalled thread — %s, write-only", ds),
		RowLabel: "threads",
		Cols:     cfg.Schemes,
	}
	for _, th := range cfg.Threads {
		row := make([]float64, len(cfg.Schemes))
		for j, sch := range cfg.Schemes {
			t, err := NewTarget(ds, sch, arena.ModeReuse)
			if err != nil {
				row[j] = math.NaN()
				continue
			}
			res := RunWithStall(t, Config{
				Threads:  th,
				Duration: cfg.Duration,
				Workload: WriteOnly,
				KeyRange: rangeFor(ds, true),
			})
			row[j] = float64(res.PeakUnreclaimed)
		}
		out.Rows = append(out.Rows, fmt.Sprint(th))
		out.Cells = append(out.Cells, row)
	}
	out.Write(w)
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
