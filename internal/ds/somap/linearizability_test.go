package somap_test

import (
	"sync"
	"testing"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/linchk"
)

// setStorm shrinks the bench somap target to a 2-bucket directory with
// load factor 1 for the duration of one test, so every run's history
// spans dozens of directory doublings.
func setStorm(t *testing.T) {
	t.Helper()
	ib, ml := bench.SomapInitialBuckets, bench.SomapMaxLoad
	bench.SomapInitialBuckets, bench.SomapMaxLoad = 2, 1
	t.Cleanup(func() { bench.SomapInitialBuckets, bench.SomapMaxLoad = ib, ml })
}

// TestLinearizableDuringResize checks map-spec linearizability of
// histories that overlap directory growth: contended workers hammer a
// tiny shared key range while a filler worker inserts a stream of unique
// keys, forcing a doubling cascade (2 → 4 → 8 → …) concurrent with every
// contended window. All ops — including the filler's — are recorded;
// CheckKV partitions the history per key, so the filler keys are
// one-op partitions and the shared keys get the full search.
func TestLinearizableDuringResize(t *testing.T) {
	const workers = 3
	const sharedKeys = 5
	ops := 1200
	if testing.Short() {
		ops = 300
	}
	setStorm(t)
	for _, scheme := range bench.SchemesFor("somap") {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			target, err := bench.NewTarget("somap", scheme, arena.ModeDetect)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range target.Pools {
				p.SetCount()
			}
			var clock linchk.Clock
			recs := make([]*linchk.Recorder, workers+1)
			handles := make([]*bench.Recorded, workers+1)
			for w := range handles {
				recs[w] = linchk.NewRecorder(&clock, w)
				handles[w] = bench.NewRecorded(target.NewHandle(), recs[w])
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := handles[w]
					r := rng{s: uint64(w)*0x9E3779B9 + 7}
					for i := 0; i < ops; i++ {
						k := r.next() % sharedKeys
						switch r.next() % 10 {
						case 0, 1, 2, 3:
							h.Get(k)
						case 4, 5, 6:
							h.Insert(k, r.next())
						default:
							h.Delete(k)
						}
					}
				}(w)
			}
			// Filler: unique keys well above the shared range, net
			// inserts only, so the directory doubles throughout the run.
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := handles[workers]
				for i := 0; i < ops; i++ {
					h.Insert(uint64(1)<<32|uint64(i), uint64(i))
				}
			}()
			wg.Wait()
			target.Finish()
			for _, p := range target.Pools {
				if st := p.Stats(); st.UAF != 0 || st.DoubleFree != 0 {
					t.Fatalf("memory-unsafe: uaf=%d doublefree=%d", st.UAF, st.DoubleFree)
				}
			}
			h := linchk.Merge(recs...)
			v := linchk.CheckKV(linchk.MapSpec{}, h, linchk.Opts{})
			switch v.Outcome {
			case linchk.OutcomeNonLinearizable:
				t.Fatalf("history not linearizable:\n%s", v.Report())
			case linchk.OutcomeExhausted:
				t.Fatalf("checker budget exhausted (%d ops, %d states):\n%s", len(h.Ops), v.Explored, v.Report())
			}
		})
	}
}

// rng is a splitmix64 generator (test-local copy; the package one is not
// exported to the _test package).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
