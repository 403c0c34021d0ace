package bench

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/scheme"
)

// reclaimingSchemes are the hmlist-applicable schemes that actually free
// (nr is excluded: it never reclaims, so "drains to zero" is vacuous).
func reclaimingSchemes(t *testing.T) []string {
	t.Helper()
	return scheme.Names(func(s *scheme.Desc) bool {
		return !s.NeverFrees && Applicable("hmlist", s.Name)
	})
}

// TestRunWithStallDrainsAfterRelease asserts the recovery half of the
// §4.4 scenario: after RunWithStall releases the stalled participant and
// drains, every reclaiming scheme reaches zero unreclaimed. Before
// StallRelease existed the stalled guard outlived the run and EBR/PEBR/NBR
// could never pass this.
func TestRunWithStallDrainsAfterRelease(t *testing.T) {
	for _, scheme := range reclaimingSchemes(t) {
		t.Run(scheme, func(t *testing.T) {
			target, err := NewTarget("hmlist", scheme, arena.ModeReuse)
			if err != nil {
				t.Fatal(err)
			}
			res := RunWithStall(target, Config{
				Threads:  2,
				Duration: 150 * time.Millisecond,
				Workload: WriteOnly,
				KeyRange: 256,
			})
			if res.Ops == 0 {
				t.Fatal("no ops executed")
			}
			if res.FinalUnreclaimed != 0 {
				t.Fatalf("%d nodes unreclaimed after release+drain (stalled=%d)",
					res.FinalUnreclaimed, res.StalledUnreclaimed)
			}
		})
	}
}

// parkFirstDeref installs a counting trap on the target's pools: the nth
// deref (across all pools) blocks until release is called. Same idiom as
// somap's resize park tests, at the bench-target level.
func parkFirstDeref(pools []PoolInfo, n int64) (parked <-chan struct{}, release func()) {
	var count atomic.Int64
	ch := make(chan struct{})
	gate := make(chan struct{})
	var once, relOnce sync.Once
	hook := func(uint64) {
		if count.Add(1) == n {
			once.Do(func() { close(ch) })
			<-gate
		}
	}
	for _, p := range pools {
		p.SetDerefHook(hook)
	}
	return ch, func() { relOnce.Do(func() { close(gate) }) }
}

// runParkedWriter parks one writer mid-insert (caught on a deref inside
// its traversal, protection announced but the operation unfinished), runs
// a deterministic retire storm from a second handle, and returns the
// backlog while parked plus the frees that happened despite the park. The
// schedule is identical across schemes: same prefill, same park point,
// same mutation count.
func runParkedWriter(t *testing.T, scheme string) (frees, backlog int64) {
	t.Helper()
	// Pin the classic fixed cadence so "bounded" has a scheme-independent
	// scale: every domain scans/collects at the same retire count.
	prev := FixedReclaimEvery
	FixedReclaimEvery = 32
	t.Cleanup(func() { FixedReclaimEvery = prev })

	target, err := NewTarget("hmlist", scheme, arena.ModeDetect)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range target.Pools {
		p.SetCount()
	}
	mut := target.NewHandle()
	const keys = uint64(64)
	for k := uint64(0); k < keys; k++ {
		mut.Insert(k, k)
	}

	// Park a second writer on its second deref: inside the list, past the
	// head, mid-traversal toward a key beyond the worked range.
	parked, release := parkFirstDeref(target.Pools, 2)
	defer release()
	done := make(chan struct{})
	parkedH := target.NewHandle()
	go func() {
		defer close(done)
		parkedH.Insert(keys+1, 42)
	}()
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never parked on the deref hook")
	}
	for _, p := range target.Pools {
		p.SetDerefHook(nil)
	}

	// Retire storm around the parked writer: 2000 delete/insert pairs on
	// the worked range, each delete one retired node.
	for i := 0; i < 2000; i++ {
		k := uint64(i) % keys
		mut.Delete(k)
		mut.Insert(k, uint64(i))
	}
	if target.Agitate != nil {
		for i := 0; i < 16; i++ {
			target.Agitate()
		}
	}

	for _, p := range target.Pools {
		frees += p.Stats().Frees
	}
	backlog = target.Unreclaimed()

	release()
	<-done
	target.Finish()
	for _, p := range target.Pools {
		if st := p.Stats(); st.UAF != 0 || st.DoubleFree != 0 {
			t.Fatalf("memory-unsafe: uaf=%d doublefree=%d", st.UAF, st.DoubleFree)
		}
	}
	if unr := target.Unreclaimed(); unr != 0 {
		t.Fatalf("%d nodes unreclaimed after release+drain", unr)
	}
	return frees, backlog
}

// TestParkedWriterBoundsRobustSchemes: with a writer parked mid-insert,
// the robust schemes keep freeing and their backlog stays bounded near
// the scan cadence — the parked announcement protects a handful of nodes,
// not the epoch.
func TestParkedWriterBoundsRobustSchemes(t *testing.T) {
	bounded := scheme.Names(func(s *scheme.Desc) bool { return s.Stalled == scheme.Bounded })
	for _, name := range bounded {
		t.Run(name, func(t *testing.T) {
			frees, backlog := runParkedWriter(t, name)
			if frees == 0 {
				t.Fatalf("%s freed nothing while the writer was parked; reclamation stalled", name)
			}
			// 2000 retires with cadence 32: a bounded scheme's backlog is
			// a small multiple of the cadence plus protected nodes. NBR's
			// bound is its neutralization pressure (4×128 by default, but
			// FixedReclaimEvery=32 pins guards' threshold to 32 → 4×32).
			if backlog > 512 {
				t.Fatalf("%s backlog %d while parked; expected a cadence-scale bound", name, backlog)
			}
		})
	}
}

// TestParkedWriterStallsEBR: the identical schedule under EBR freezes
// reclamation — the parked writer's pin holds the epoch, so the whole
// retire storm accumulates — and still drains to zero after release.
func TestParkedWriterStallsEBR(t *testing.T) {
	frees, backlog := runParkedWriter(t, "ebr")
	if frees != 0 {
		t.Fatalf("EBR freed %d nodes past a pinned writer", frees)
	}
	if backlog < 1500 {
		t.Fatalf("expected the retire storm (~2000 nodes) to accumulate behind the pin, got %d", backlog)
	}
}
