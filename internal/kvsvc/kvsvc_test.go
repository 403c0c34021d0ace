package kvsvc

import (
	"sync"
	"testing"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/scheme"
)

func TestStoreBasicAllSchemes(t *testing.T) {
	for _, s := range scheme.All() {
		if !s.Servable {
			continue
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			st, err := NewStore(Config{Shards: 4, Scheme: s.Name, Mode: arena.ModeDetect, Buckets: 32})
			if err != nil {
				t.Fatal(err)
			}
			h := st.NewHandle()
			for k := uint64(0); k < 200; k++ {
				if !h.Insert(k, k*10) {
					t.Fatalf("insert %d failed", k)
				}
			}
			for k := uint64(0); k < 200; k++ {
				v, ok := h.Get(k)
				if !ok || v != k*10 {
					t.Fatalf("get %d = (%d,%v), want (%d,true)", k, v, ok, k*10)
				}
			}
			for k := uint64(0); k < 200; k += 2 {
				if !h.Delete(k) {
					t.Fatalf("delete %d failed", k)
				}
			}
			for k := uint64(0); k < 200; k++ {
				_, ok := h.Get(k)
				if want := k%2 == 1; ok != want {
					t.Fatalf("get %d present=%v, want %v", k, ok, want)
				}
			}
			st.Drain()
			if uaf, df := st.BugCounts(); uaf != 0 || df != 0 {
				t.Fatalf("arena violations: uaf=%d doublefree=%d", uaf, df)
			}
			// The finish path: every handle finished, every retired node
			// handed back (nr never frees).
			if n := st.LiveHandles(); n != 0 {
				t.Fatalf("%d handles live after Drain", n)
			}
			if unr := st.Unreclaimed(); unr != 0 && !s.NeverFrees {
				t.Fatalf("%d nodes unreclaimed after Drain", unr)
			}
		})
	}
}

func TestStoreRejectsUnknownScheme(t *testing.T) {
	for _, name := range []string{"nosuch", "rc", scheme.ScotNoValidate} {
		if _, err := NewStore(Config{Scheme: name}); err == nil {
			t.Fatalf("scheme %q accepted", name)
		}
	}
	// The unsafefree control builds (the stress harness's must-fail
	// kvmap cell) but is not servable.
	if _, err := NewStore(Config{Scheme: scheme.Unsafe}); err != nil {
		t.Fatal(err)
	}
}

// TestShardRoutingSpreads checks that a dense key range reaches every
// shard, and that each key consistently maps to one shard.
func TestShardRoutingSpreads(t *testing.T) {
	st, err := NewStore(Config{Shards: 8, Scheme: "hp++", Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	hit := make([]int, st.NumShards())
	for k := uint64(0); k < 4096; k++ {
		i := st.ShardOf(k)
		if j := st.ShardOf(k); j != i {
			t.Fatalf("key %d routed to %d then %d", k, i, j)
		}
		hit[i]++
	}
	for i, n := range hit {
		// With 4096 keys over 8 shards a fair hash puts ~512 on each;
		// require at least a quarter of that to catch a broken router
		// without flaking on hash variance.
		if n < 128 {
			t.Fatalf("shard %d got only %d/4096 keys: routing is skewed %v", i, n, hit)
		}
	}

	h := st.NewHandle()
	for k := uint64(0); k < 1024; k++ {
		h.Insert(k, k)
	}
	for i, sst := range st.ShardStats() {
		if sst.ArenaLive == 0 {
			t.Fatalf("shard %d has no live nodes after a dense prefill", i)
		}
	}
	st.Drain()
}

func TestStoreConcurrentDetect(t *testing.T) {
	st, err := NewStore(Config{Shards: 4, Scheme: "hp++", Mode: arena.ModeDetect, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	ops := 3000
	if testing.Short() {
		ops = 600
	}
	handles := make([]Handle, workers)
	for i := range handles {
		handles[i] = st.NewHandle()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(h Handle, seed uint64) {
			defer wg.Done()
			s := seed
			for i := 0; i < ops; i++ {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				k := s % 64
				switch s % 3 {
				case 0:
					h.Insert(k, s)
				case 1:
					h.Delete(k)
				default:
					h.Get(k)
				}
			}
		}(handles[w], uint64(w)*0x9E3779B97F4A7C15+1)
	}
	wg.Wait()
	st.Drain()
	if uaf, df := st.BugCounts(); uaf != 0 || df != 0 {
		t.Fatalf("arena violations under churn: uaf=%d doublefree=%d", uaf, df)
	}
	total := st.StatsTotal()
	if total.TotalRetired == 0 {
		t.Fatal("no nodes retired: the workload never exercised reclamation")
	}
}

func TestAggregateStatsSums(t *testing.T) {
	st, err := NewStore(Config{Shards: 4, Scheme: "ebr", Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := st.NewHandle()
	for k := uint64(0); k < 512; k++ {
		h.Insert(k, k)
	}
	for k := uint64(0); k < 512; k++ {
		h.Delete(k)
	}
	per := st.ShardStats()
	tot := AggregateStats(per)
	var retired, freed int64
	for _, p := range per {
		retired += p.TotalRetired
		freed += p.TotalFreed
	}
	if tot.TotalRetired != retired || tot.TotalFreed != freed {
		t.Fatalf("aggregate flows %d/%d != summed %d/%d",
			tot.TotalRetired, tot.TotalFreed, retired, freed)
	}
	if retired == 0 {
		t.Fatal("512 deletes retired nothing")
	}
	if tot.Scheme != "ebr" {
		t.Fatalf("aggregate scheme %q", tot.Scheme)
	}
	st.Drain()
	if got := st.Unreclaimed(); got != 0 {
		t.Fatalf("unreclaimed after drain = %d, want 0", got)
	}
}

func TestPutUpserts(t *testing.T) {
	st, err := NewStore(Config{Shards: 2, Scheme: "hp++", Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	h := st.NewHandle()
	if !Put(h, 7, 1) {
		t.Fatal("first put failed")
	}
	if !Put(h, 7, 2) {
		t.Fatal("overwriting put failed")
	}
	if v, ok := h.Get(7); !ok || v != 2 {
		t.Fatalf("get after upsert = (%d,%v), want (2,true)", v, ok)
	}
	st.Drain()
}

// TestPutContendedHotKey: concurrent upserts on ONE key must all
// succeed. The old Put gave up after 8 insert/delete attempts and
// returned false, which the server surfaced as StatusErr — under real
// contention a hot key made puts fail spuriously. Put now retries until
// its insert wins.
func TestPutContendedHotKey(t *testing.T) {
	st, err := NewStore(Config{Shards: 1, Scheme: "hp++", Mode: arena.ModeDetect, Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 400
		hotKey  = 42
	)
	var wg sync.WaitGroup
	fails := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, h Handle) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !Put(h, hotKey, uint64(w*rounds+i)) {
					fails[w]++
				}
			}
		}(w, st.NewHandle())
	}
	wg.Wait()
	for w, n := range fails {
		if n != 0 {
			t.Fatalf("worker %d: %d puts failed on the hot key; Put must retry until it wins", w, n)
		}
	}
	if _, ok := st.NewHandle().Get(hotKey); !ok {
		t.Fatal("hot key missing after the storm")
	}
	st.Drain()
	if uaf, df := st.BugCounts(); uaf != 0 || df != 0 {
		t.Fatalf("arena violations: uaf=%d doublefree=%d", uaf, df)
	}
}

func TestDrainIsIdempotent(t *testing.T) {
	st, err := NewStore(Config{Shards: 2, Scheme: "pebr", Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	h := st.NewHandle()
	for k := uint64(0); k < 64; k++ {
		h.Insert(k, k)
		h.Delete(k)
	}
	st.Drain()
	st.Drain()
	if got := st.Unreclaimed(); got != 0 {
		t.Fatalf("unreclaimed after drain = %d", got)
	}
}
