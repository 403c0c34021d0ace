package stress

import (
	"testing"

	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/scheme"
)

func testOpts(ops int) Options {
	return Options{Workers: 4, Ops: ops, Keys: 6, Faults: DefaultFaults()}
}

func TestMatrixShape(t *testing.T) {
	safe := Matrix(false)
	all := Matrix(true)
	if len(all) <= len(safe) {
		t.Fatalf("Matrix(true) added no unsafe cells: %d vs %d", len(all), len(safe))
	}
	// Unsafe controls: one per map structure, the CS stack, and the
	// hhslist SCOT skip-validation control.
	wantUnsafe := len(bench.DataStructures()) + 2
	if got := len(all) - len(safe); got != wantUnsafe {
		t.Fatalf("unsafe cell count = %d, want %d", got, wantUnsafe)
	}
	seen := map[Cell]bool{}
	kinds := map[string]int{}
	for _, c := range all {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
		kinds[c.Kind]++
	}
	if kinds["map"] == 0 || kinds["queue"] == 0 || kinds["stack"] == 0 {
		t.Fatalf("matrix missing a kind: %v", kinds)
	}
	for _, c := range safe {
		if s, _ := scheme.Lookup(c.Scheme); s.Control {
			t.Fatalf("Matrix(false) contains unsafe cell %v", c)
		}
	}
}

func TestRunRejectsUnknownCell(t *testing.T) {
	if _, err := Run(Cell{"hmlist", "hp", "bogus"}, testOpts(10)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Run(Cell{"hmlist", "nosuch", "map"}, testOpts(10)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// requireOK runs a cell that is expected to be fully correct and fails
// the test with the attributable report otherwise.
func requireOK(t *testing.T, c Cell, opts Options) CellResult {
	t.Helper()
	res, err := Run(c, opts)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if !res.Passed() {
		t.Fatalf("%v: outcome %q (uaf=%d doublefree=%d)\n%s",
			c, res.Outcome, res.UAF, res.DoubleFree, res.Report)
	}
	if res.Ops == 0 {
		t.Fatalf("%v: no operations recorded", c)
	}
	return res
}

// TestSafeCellsSubsample covers a representative slice of the matrix in
// short mode: every kind, every scheme family, every fault injector.
func TestSafeCellsSubsample(t *testing.T) {
	cells := []Cell{
		{"hmlist", "hp++", "map"},
		{"skiplist", "hp", "map"},
		{"bonsai", "rc", "map"},
		{"hhslist", "pebr", "map"},
		{"hhslist", "hp-scot", "map"},
		{"hmlist", "hp-scot", "map"},
		{"hashmap", "ebr", "map"},
		{"somap", "hp++", "map"},
		{"somap", "hp", "map"},
		{"somap", "hp-scot", "map"},
		{"nmtree", "hp++ef", "map"},
		{"efrbtree", "pebr", "map"},
		{"msqueue", "hp++", "queue"},
		{"tstack", "hp", "stack"},
		{"tstack", "pebr", "stack"},
	}
	ops := 250
	if !testing.Short() {
		ops = 800
	}
	for _, c := range cells {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			requireOK(t, c, testOpts(ops))
		})
	}
}

// TestFullMatrixSafe sweeps every safe cell of the matrix. Long mode
// only; the short subsample above covers each family.
func TestFullMatrixSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix sweep in long mode only")
	}
	for _, c := range Matrix(false) {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			requireOK(t, c, testOpts(600))
		})
	}
}

// TestUnsafeCellsFlagged is the must-fail control: the unsafefree scheme
// frees nodes immediately on unlink, so the deref yieldpoints make the
// arena observe a use-after-free. The harness must attribute this as a
// memory-safety verdict, not a linearizability one. Escalating rounds
// keep it deterministic-in-practice on any core count.
func TestUnsafeCellsFlagged(t *testing.T) {
	cells := []Cell{
		{"hmlist", scheme.Unsafe, "map"},
		{"somap", scheme.Unsafe, "map"},
		{"tstack", scheme.Unsafe, "stack"},
		// The SCOT control: hazards announced, handshake skipped. The
		// parked reader resumes through links frozen while the chain was
		// unlinked, retired and freed around it — validation is the only
		// thing standing between that walk and a use-after-free.
		{"hhslist", scheme.ScotNoValidate, "map"},
	}
	for _, c := range cells {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			for round := 0; round < 5; round++ {
				opts := testOpts(400 << round)
				opts.Seed = 0xBAD5EED + uint64(round)
				res, err := Run(c, opts)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if res.UAF > 0 || res.DoubleFree > 0 {
					if res.Outcome != "uaf" && res.Outcome != "double-free" {
						t.Fatalf("bug counted but outcome %q", res.Outcome)
					}
					return
				}
			}
			t.Fatalf("%v: no UAF/double-free detected after 5 escalating rounds", c)
		})
	}
}

// TestFaultKnobsOff exercises the no-faults path: with every injector
// disabled the harness still records and checks a valid history.
func TestFaultKnobsOff(t *testing.T) {
	opts := Options{Workers: 2, Ops: 200, Keys: 4}
	res := requireOK(t, Cell{"hmlist", "ebr", "map"}, opts)
	if res.ParkedStall {
		t.Fatal("stalled reader parked with StallReader disabled")
	}
}
