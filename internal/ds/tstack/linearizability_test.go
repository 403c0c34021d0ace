package tstack_test

import (
	"sync"
	"testing"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/linchk"
)

// TestLinearizableShared drives the Treiber stack from several pushers
// and poppers on one shared stack, records the complete history, and
// checks it against the sequential LIFO spec with the linchk checker.
func TestLinearizableShared(t *testing.T) {
	const workers = 4
	ops := 1500
	if testing.Short() {
		ops = 400
	}
	for _, scheme := range bench.SchemesFor("tstack") {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			target, err := bench.NewStackTarget(scheme, arena.ModeDetect)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range target.Pools {
				p.SetCount()
			}
			var clock linchk.Clock
			recs := make([]*linchk.Recorder, workers)
			handles := make([]*bench.RecordedStack, workers)
			for w := range handles {
				recs[w] = linchk.NewRecorder(&clock, w)
				handles[w] = bench.NewRecordedStack(target.NewHandle(), recs[w])
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := handles[w]
					for i := 0; i < ops; i++ {
						if (i+w)%2 == 0 {
							h.Push(uint64(w+1)<<32 | uint64(i))
						} else {
							h.Pop()
						}
					}
				}(w)
			}
			wg.Wait()
			target.Finish()
			for _, p := range target.Pools {
				if st := p.Stats(); st.UAF != 0 || st.DoubleFree != 0 {
					t.Fatalf("memory-unsafe: uaf=%d doublefree=%d", st.UAF, st.DoubleFree)
				}
			}
			h := linchk.Merge(recs...)
			v := linchk.Check(linchk.StackSpec{}, h, linchk.Opts{})
			switch v.Outcome {
			case linchk.OutcomeNonLinearizable:
				t.Fatalf("history not linearizable:\n%s", v.Report())
			case linchk.OutcomeExhausted:
				t.Fatalf("checker budget exhausted (%d ops, %d states):\n%s", len(h.Ops), v.Explored, v.Report())
			}
		})
	}
}
