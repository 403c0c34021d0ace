package somap_test

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/scheme"
)

// These are the deterministic resize regressions: a reader is parked
// *mid-traversal* (inside a deref, protection held) with the arena's
// deref hook — the same one-shot trap the kvsvc overload tests use —
// and, while it sleeps, the map is driven through a directory-doubling
// cascade (size CAS + sibling-dummy splices into the reader's run) and a
// mass delete that retires nodes around the parked position.
//
// The contrast under an identical schedule:
//
//   - HP++ keeps reclaiming while the reader is parked (bounded
//     garbage): the parked reader pins at most its protected frontier,
//     and everything else retires and frees on cadence;
//   - EBR freezes: the parked reader pins the epoch, so *nothing*
//     retired after it pinned can be freed until it resumes.
//
// Both must be memory-safe and drain to zero after release.

// parkNthDeref arms a counting trap on every pool: the goroutine that
// performs the nth deref parks until release is called. The caller must
// guarantee the target goroutine is the only one deref-ing between arm
// and park (clear the hooks after the park before resuming mutators).
func parkNthDeref(pools []bench.PoolInfo, n int64) (parked <-chan struct{}, release func()) {
	p := make(chan struct{})
	r := make(chan struct{})
	var cnt atomic.Int64
	for _, pool := range pools {
		pool.SetDerefHook(func(uint64) {
			if cnt.Add(1) == n {
				close(p)
				<-r
			}
		})
	}
	var released atomic.Bool
	return p, func() {
		if released.CompareAndSwap(false, true) {
			close(r)
		}
	}
}

func clearDerefHooks(pools []bench.PoolInfo) {
	for _, pool := range pools {
		pool.SetDerefHook(nil)
	}
}

// runParkedResize executes the shared schedule for one scheme and
// returns (freesWhileParked, unreclaimedWhileParked). It fails the test
// on any memory-safety violation, wrong read result, or nonzero
// unreclaimed after the final drain.
func runParkedResize(t *testing.T, scheme string) (int64, int64) {
	t.Helper()
	setStorm(t)
	fre := bench.FixedReclaimEvery
	bench.FixedReclaimEvery = 32 // deterministic reclaim/collect cadence
	t.Cleanup(func() { bench.FixedReclaimEvery = fre })

	target, err := bench.NewTarget("somap", scheme, arena.ModeDetect)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range target.Pools {
		p.SetCount()
	}
	mut := target.NewHandle()
	reader := target.NewHandle()

	// Prefill: the reader's key plus enough neighbours that its bucket
	// run is several nodes long when it parks.
	const hot = uint64(42)
	for k := uint64(0); k < 64; k++ {
		mut.Insert(k, k+1000)
	}

	// Park the reader on its second deref: past the entry dummy, on a
	// node inside the bucket run, protection published but liveness not
	// yet validated — the exact window a bad scheme frees into.
	parked, release := parkNthDeref(target.Pools, 2)
	defer release()
	type got struct {
		val uint64
		ok  bool
	}
	done := make(chan got)
	go func() {
		v, ok := reader.Get(hot)
		done <- got{v, ok}
	}()
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("reader never parked on the deref hook")
	}
	clearDerefHooks(target.Pools)

	// Directory swap window: 3000 unique inserts double the 2-bucket
	// storm directory ~10 times and splice sibling dummies into every
	// run, including the one the reader is parked inside.
	for i := uint64(0); i < 3000; i++ {
		mut.Insert(1<<40|i, i)
	}
	// Dummy-splice + retire window: delete the reader's neighbours and
	// most of the filler, retiring thousands of nodes around the parked
	// position.
	for k := uint64(0); k < 64; k++ {
		if k != hot {
			mut.Delete(k)
		}
	}
	for i := uint64(0); i < 2500; i++ {
		mut.Delete(1<<40 | i)
	}
	if target.Agitate != nil {
		for i := 0; i < 16; i++ {
			target.Agitate()
		}
	}

	var frees int64
	for _, p := range target.Pools {
		frees += p.Stats().Frees
	}
	unreclaimed := target.Unreclaimed()

	release()
	r := <-done
	if !r.ok || r.val != hot+1000 {
		t.Fatalf("parked reader Get(%d) = (%d,%v), want (%d,true)", hot, r.val, r.ok, hot+1000)
	}
	target.Finish()
	for _, p := range target.Pools {
		if st := p.Stats(); st.UAF != 0 || st.DoubleFree != 0 {
			t.Fatalf("memory-unsafe: uaf=%d doublefree=%d", st.UAF, st.DoubleFree)
		}
	}
	if unr := target.Unreclaimed(); unr != 0 {
		t.Fatalf("%d nodes unreclaimed after drain", unr)
	}
	return frees, unreclaimed
}

// TestParkedReaderResizeHPP: HP++ must keep freeing while the reader is
// parked across the directory swap — the parked protection bounds the
// garbage, it does not stall the domain.
func TestParkedReaderResizeHPP(t *testing.T) {
	hpp := scheme.Names(func(s *scheme.Desc) bool { return s.Family == scheme.HPP })
	for _, name := range hpp {
		t.Run(name, func(t *testing.T) {
			frees, _ := runParkedResize(t, name)
			if frees == 0 {
				t.Fatal("HP++ freed nothing while the reader was parked; reclamation stalled")
			}
		})
	}
}

// TestParkedReaderResizeSCOT: plain HP with the SCOT traversal must match
// HP++'s robustness here — the parked reader pins only its announced
// hazards (anchor, chain entry, cur), so reclamation keeps freeing across
// the directory swap, and the resumed read revalidates through the
// handshake to the correct result.
func TestParkedReaderResizeSCOT(t *testing.T) {
	frees, _ := runParkedResize(t, "hp-scot")
	if frees == 0 {
		t.Fatal("hp-scot freed nothing while the reader was parked; reclamation stalled")
	}
}

// TestParkedReaderResizeEBRStalls: the identical schedule under EBR
// frees nothing while the reader is parked (the pinned guard holds the
// epoch), and the retired backlog is visible in Unreclaimed. It still
// drains to zero once the reader resumes.
func TestParkedReaderResizeEBRStalls(t *testing.T) {
	frees, unreclaimed := runParkedResize(t, "ebr")
	if frees != 0 {
		t.Fatalf("EBR freed %d nodes past a pinned reader", frees)
	}
	if unreclaimed < 2000 {
		t.Fatalf("expected a large retired backlog while parked, got %d", unreclaimed)
	}
}
