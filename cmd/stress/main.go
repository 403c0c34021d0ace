// Command stress runs the full-matrix fault-injection safety harness:
// every registered (data structure, scheme) cell executes a shared-key
// workload in arena detect mode under stalled readers, delayed retirers
// and reclamation storms, records a complete operation history, and
// checks it for linearizability. Verdicts are attributable: "uaf" /
// "double-free" indict the reclamation scheme, "non-linearizable"
// indicts the data structure, "ok" clears both.
//
// Sweep the whole matrix (including the unsafefree must-fail controls):
//
//	stress -unsafe
//
// Run a single cell, or filter the sweep:
//
//	stress -ds skiplist -scheme hp++
//	stress -kind queue
//
// Results are printed as a table and written as JSON into -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gosmr/gosmr/internal/scheme"
	"github.com/gosmr/gosmr/internal/stress"
)

func main() {
	var (
		ds       = flag.String("ds", "", "restrict to one data structure")
		schemeF  = flag.String("scheme", "", "restrict to one scheme")
		kind     = flag.String("kind", "", "restrict to one kind: map | queue | stack")
		unsafe   = flag.Bool("unsafe", false, "include the must-fail control cells (unsafefree + hp-scot-novalidate)")
		workers  = flag.Int("workers", 4, "worker goroutines per cell")
		ops      = flag.Int("ops", 1200, "operations per worker")
		keys     = flag.Uint64("keys", 8, "shared key range (map cells)")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = default)")
		maxNodes = flag.Int64("maxnodes", 0, "linearizability search budget (0 = default)")
		noStall  = flag.Bool("no-stall", false, "disable the parked stalled reader")
		parked   = flag.Bool("parked", false, "upgrade the stalled participant to a writer parked mid-mutation (§4.4 adversary)")
		delay    = flag.Int("delay", 4, "yields after each remove (0 = off)")
		noStorm  = flag.Bool("no-storm", false, "disable the reclamation storm")
		yield    = flag.Int("yield", 64, "scheduler yield every Nth deref (0 = off)")
		noResize = flag.Bool("no-resize-storm", false, "disable the resize storm (somap cells run with tiny directories otherwise)")
		out      = flag.String("out", "results", "directory for the JSON report")
		list     = flag.Bool("list", false, "list matrix cells and exit")
	)
	flag.Parse()

	// Naming a control pulls in the control cells even without -unsafe.
	if s, ok := scheme.Lookup(*schemeF); ok && s.Control {
		*unsafe = true
	}
	cells := stress.Matrix(*unsafe)
	var selected []stress.Cell
	for _, c := range cells {
		if (*ds == "" || c.DS == *ds) && (*schemeF == "" || c.Scheme == *schemeF) && (*kind == "" || c.Kind == *kind) {
			selected = append(selected, c)
		}
	}
	if *list {
		for _, c := range selected {
			fmt.Printf("%-10s %-10s %s\n", c.DS, c.Scheme, c.Kind)
		}
		return
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "stress: no matrix cells match the given filters")
		os.Exit(2)
	}

	opts := stress.Options{
		Workers:  *workers,
		Ops:      *ops,
		Keys:     *keys,
		Seed:     *seed,
		MaxNodes: *maxNodes,
		Faults: stress.Faults{
			StallReader:  !*noStall,
			ParkedWorker: *parked,
			DelayRetire:  *delay,
			Storm:        !*noStorm,
			YieldEvery:   *yield,
			ResizeStorm:  !*noResize,
		},
	}

	var results []stress.CellResult
	bad := 0
	fmt.Printf("%-10s %-10s %-6s %8s %6s %6s %6s  %s\n",
		"ds", "scheme", "kind", "ops", "uaf", "dfree", "ms", "outcome")
	for _, c := range selected {
		res, err := stress.Run(c, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stress: %v: %v\n", c, err)
			os.Exit(1)
		}
		results = append(results, res)
		s, _ := scheme.Lookup(c.Scheme)
		mustFail := s.Control
		verdict := res.Outcome
		switch {
		case mustFail && res.Passed():
			verdict += "  (!! control not flagged)"
			bad++
		case mustFail:
			verdict += "  (expected: control)"
		case !res.Passed():
			bad++
		}
		fmt.Printf("%-10s %-10s %-6s %8d %6d %6d %6d  %s\n",
			c.DS, c.Scheme, c.Kind, res.Ops, res.UAF, res.DoubleFree, res.ElapsedMS, verdict)
		if !res.Passed() && !mustFail && res.Report != "" {
			fmt.Println(res.Report)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "stress: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*out, fmt.Sprintf("stress-%s.json", time.Now().Format("20060102-150405")))
	data, err := json.MarshalIndent(results, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stress: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%d cells, %d unexpected; report: %s\n", len(results), bad, path)
	if bad > 0 {
		os.Exit(1)
	}
}
