package bench

import (
	"fmt"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/kvsvc"
	"github.com/gosmr/gosmr/internal/scheme"
)

// kvmap bench/stress parameters: small shards and few buckets so the
// harness's key ranges produce real per-shard contention (4 shards ×
// 64 buckets ≈ the single hashmap target's density at 256 buckets).
const (
	kvmapShards  = 4
	kvmapBuckets = 1 << 6
)

// newKVMapTarget wraps the kvsvc sharded store — the gosmrd service
// layer minus the network — so the bench and stress harnesses cover the
// shard-per-domain composition: cross-shard routed handles, per-shard
// reclamation domains, and drain. kvsvc.Handle and kvsvc.ArenaPool are
// structural twins of Handle and PoolInfo, so the store plugs in
// directly; only the pool slice needs an element-wise retype.
func newKVMapTarget(s *scheme.Desc, mode arena.Mode) (Target, error) {
	st, err := kvsvc.NewStore(kvsvc.Config{
		Shards:  kvmapShards,
		Scheme:  s.Name,
		Mode:    mode,
		Buckets: kvmapBuckets,
	})
	if err != nil {
		return Target{}, fmt.Errorf("bench: kvmap: %w", err)
	}
	t := Target{DS: "kvmap", Scheme: s.Name}
	t.NewHandle = func() Handle { return st.NewHandle() }
	t.Finish = st.Drain
	t.Unreclaimed = st.Unreclaimed
	t.PeakUnreclaimed = st.PeakUnreclaimed
	t.Stats = st.StatsTotal
	t.MemBytes = func() int64 { return st.ArenaTotals().Bytes }
	t.Stall = st.Stall
	t.StallRelease = st.StallRelease
	for _, p := range st.Pools() {
		t.Pools = append(t.Pools, p)
	}
	t.Agitate = st.Agitator()
	return t, nil
}
