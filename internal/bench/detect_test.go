package bench

import (
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/scheme"
)

// TestDetectSweep runs every registered (data structure, scheme) pair
// concurrently for a short burst with the arena in detect mode: any
// use-after-free anywhere in the stack panics. This is the harness-level
// safety net over the per-package stress tests — it also exercises the
// exact wiring the benchmarks use, including the finish path: after Run
// every reclaiming scheme has handed back every retired node.
func TestDetectSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ds := range DataStructures() {
		for _, s := range scheme.All() {
			if s.Control || !Applicable(ds, s.Name) {
				continue
			}
			ds, s := ds, s
			t.Run(ds+"/"+s.Name, func(t *testing.T) {
				target, err := NewTarget(ds, s.Name, arena.ModeDetect)
				if err != nil {
					t.Fatal(err)
				}
				res := Run(target, Config{
					Threads:  4,
					Duration: 80 * time.Millisecond,
					Workload: WriteOnly,
					KeyRange: 128,
				})
				if res.Ops == 0 {
					t.Fatalf("%s/%s made no progress", ds, s.Name)
				}
				if unr := target.Unreclaimed(); unr != 0 && !s.NeverFrees {
					t.Fatalf("%s/%s: %d nodes unreclaimed after Run", ds, s.Name, unr)
				}
			})
		}
	}
}
