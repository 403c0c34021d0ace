// Package kvsvc is the sharded key-value service layer: the first
// subsystem in this repository that puts the reclamation schemes under
// real, network-shaped traffic (pipelined connections, skewed key
// popularity, bursts, graceful drain) instead of in-process benchmark
// loops.
//
// A Store is a fixed array of shards. Each shard owns its *own*
// reclamation domain (built from the scheme table, internal/scheme) and
// its own arena-backed split-ordered resizable map (internal/ds/somap),
// whose directory doubles as the shard fills. The shard-per-domain
// layout is deliberate:
//
//   - reclamation pressure is confined: a stalled or slow reader on one
//     shard bounds that shard's garbage, not the whole store's;
//   - hazard registries and epoch record lists stay small, so Reclaim
//     scans and Collect walks stay proportional to one shard's handles;
//   - per-shard smr.Stats gauges make imbalance observable from the
//     admin endpoint (one hot shard shows up as one hot row).
//
// Keys are routed to shards with a splitmix64 stream seeded differently
// from the in-map bucket hash: if both moduli consumed the same mix, the
// keys owned by shard i would all satisfy mix(k) ≡ i (mod Shards) and —
// with power-of-two shard and bucket counts — would land in only
// 1/Shards of the shard's buckets.
//
// The Store is the embeddable core; Server in server.go fronts it with
// the wire protocol, run-to-completion request execution and the admin
// endpoint.
package kvsvc

import (
	"fmt"
	"strings"
	"sync"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/ds/hhslist"
	"github.com/gosmr/gosmr/internal/ds/hmlist"
	"github.com/gosmr/gosmr/internal/ds/somap"
	"github.com/gosmr/gosmr/internal/scheme"
	"github.com/gosmr/gosmr/internal/smr"
)

// Handle is the per-worker operation surface. It is structurally
// identical to bench.Handle, so Store handles plug straight into the
// bench and stress harnesses. Handles are not safe for concurrent use.
type Handle interface {
	Get(key uint64) (uint64, bool)
	Insert(key, val uint64) bool
	Delete(key uint64) bool
}

// ArenaPool is the slice of the arena pool API the service and the
// harnesses need; every per-package pool wrapper satisfies it (it is the
// kvsvc-side twin of bench.PoolInfo, kept separate so bench can depend
// on kvsvc and not vice versa).
type ArenaPool interface {
	Name() string
	Stats() arena.Stats
	Mode() arena.Mode
	SetCount()
	SetDerefHook(func(uint64))
}

// Config parameterizes a Store.
type Config struct {
	// Shards is the number of independent (domain, map) pairs (default 8).
	Shards int
	// Scheme selects the reclamation scheme (default "hp++"): a servable
	// scheme of the scheme table, or the unsafefree control.
	Scheme string
	// Mode is the arena mode: ModeReuse to serve, ModeDetect to stress.
	Mode arena.Mode
	// Buckets is the per-shard initial directory size (default 256); the
	// map doubles itself past it on load.
	Buckets int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Scheme == "" {
		c.Scheme = "hp++"
	}
	if c.Buckets <= 0 {
		c.Buckets = 1 << 8
	}
	return c
}

// shard is one (domain, map) pair. newH, releaseH, live and finish must
// only be called under the owning Store's mutex.
type shard struct {
	dom      *scheme.Domain
	pools    []ArenaPool
	newH     func() Handle
	releaseH func(Handle)
	live     func() int
	finish   func()
}

// wireHandles installs a shard's handle lifecycle. Handles live in a set
// keyed by their concrete type: newH registers, releaseH finishes one
// handle and drops it (unknown handles are ignored), finish finishes every
// survivor and drains the domain. Before releaseH existed every wiring
// appended handles to an unbounded slice, so a server that acquired a
// handle per connection grew its hazard registry (and with it every
// ScanSet built from Registry.Len()) with connections ever accepted
// instead of peak concurrency.
func wireHandles[H interface {
	comparable
	Handle
}](s *shard, newHandle func() H) {
	live := make(map[H]struct{})
	s.newH = func() Handle {
		h := newHandle()
		live[h] = struct{}{}
		return h
	}
	s.releaseH = func(h Handle) {
		hh, ok := h.(H)
		if !ok {
			return
		}
		if _, ok := live[hh]; !ok {
			return
		}
		delete(live, hh)
		s.dom.FinishHandle(hh)
	}
	s.live = func() int { return len(live) }
	s.finish = func() {
		for hh := range live {
			s.dom.FinishHandle(hh)
		}
		clear(live)
		s.dom.Drain()
	}
}

// newShard builds one (domain, somap) pair: one family switch over the
// somap variants.
func newShard(s *scheme.Desc, mode arena.Mode, buckets int) (*shard, error) {
	d := s.New(0)
	sh := &shard{dom: d}
	cfg := somap.Config{InitialBuckets: buckets}
	switch s.Family {
	case scheme.CS:
		pool := hhslist.NewPool(mode)
		m := somap.NewMapCS(pool, cfg)
		sh.pools = []ArenaPool{pool}
		wireHandles(sh, func() *somap.HandleCS { return m.NewHandleCS(d.Guards) })
	case scheme.HP:
		pool := hmlist.NewPool(mode)
		m := somap.NewMapHP(pool, cfg)
		sh.pools = []ArenaPool{pool}
		wireHandles(sh, func() *somap.HandleHP { return m.NewHandleHP(d.HP) })
	case scheme.HPP:
		pool := hhslist.NewPool(mode)
		m := somap.NewMapHPP(pool, cfg)
		sh.pools = []ArenaPool{pool}
		wireHandles(sh, func() *somap.HandleHPP { return m.NewHandleHPP(d.HPP) })
	case scheme.SCOT:
		pool := hhslist.NewPool(mode)
		m := somap.NewMapSCOT(pool, cfg)
		sh.pools = []ArenaPool{pool}
		wireHandles(sh, func() *somap.HandleSCOT { return m.NewHandleSCOT(d.HP) })
	default:
		return nil, fmt.Errorf("kvsvc: somap has no %s variant", s.Family)
	}
	return sh, nil
}

// Store is the sharded key-value store: Config.Shards independent
// (reclamation domain, hash map) pairs behind a key router. Methods on
// the Store itself are safe for concurrent use; the Handles it hands out
// are single-owner.
type Store struct {
	cfg    Config
	shards []*shard

	mu      sync.Mutex
	drained bool
}

// NewStore builds a store with cfg (zero fields take defaults). It
// accepts the servable schemes and the unsafefree control, which the
// stress harness runs as a must-fail cell; somap has no variant that
// elides SCOT validation, so the SCOT control is refused.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s, ok := scheme.Lookup(cfg.Scheme)
	if !ok || !s.Servable && !s.Control || s.SkipValidation {
		return nil, fmt.Errorf("kvsvc: unknown scheme %q (valid: %s)", cfg.Scheme,
			strings.Join(scheme.Names(func(s *scheme.Desc) bool { return s.Servable }), ", "))
	}
	st := &Store{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(s, cfg.Mode, cfg.Buckets)
		if err != nil {
			return nil, err
		}
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Scheme returns the configured scheme name.
func (s *Store) Scheme() string { return s.cfg.Scheme }

// shardMix is a splitmix64 finalizer on a different stream than the
// in-map bucket hash (see the package comment for why that matters).
func shardMix(x uint64) uint64 {
	x ^= 0xA24BAED4963EE407
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf returns the index of the shard owning key.
func (s *Store) ShardOf(key uint64) int {
	return int(shardMix(key) % uint64(len(s.shards)))
}

// routedHandle fans a Handle out across every shard by key.
type routedHandle struct {
	s    *Store
	subs []Handle
}

func (h *routedHandle) at(key uint64) Handle { return h.subs[h.s.ShardOf(key)] }

func (h *routedHandle) Get(key uint64) (uint64, bool) { return h.at(key).Get(key) }
func (h *routedHandle) Insert(key, val uint64) bool   { return h.at(key).Insert(key, val) }
func (h *routedHandle) Delete(key uint64) bool        { return h.at(key).Delete(key) }

// NewHandle returns a per-worker handle spanning all shards: each op is
// routed to the shard owning its key. The worker acquires one guard or
// thread in every shard's domain.
func (s *Store) NewHandle() Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &routedHandle{s: s, subs: make([]Handle, len(s.shards))}
	for i, sh := range s.shards {
		h.subs[i] = sh.newH()
	}
	return h
}

// NewShardHandle returns a handle bound to shard i only — the server's
// handle pool hands these out, so each handle participates in exactly
// one domain. The caller must route only shard-i keys through it.
func (s *Store) NewShardHandle(i int) Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i].newH()
}

// ReleaseShardHandle finishes a handle obtained from NewShardHandle(i):
// pending retires are freed or orphaned and the handle's hazard slots or
// epoch record return to shard i's domain for reuse by future handles.
// The handle must not be used afterwards. No-op after Drain (Drain
// already finished every live handle) and for handles the shard does not
// recognize.
func (s *Store) ReleaseShardHandle(i int, h Handle) {
	if h == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return
	}
	s.shards[i].releaseH(h)
}

// ReleaseHandle finishes a handle obtained from NewHandle or
// NewShardHandle. Routed handles release their per-shard sub-handles;
// shard-bound handles are offered to every shard (the live sets are
// disjoint, so exactly one accepts). The handle must not be used
// afterwards. No-op after Drain.
func (s *Store) ReleaseHandle(h Handle) {
	if h == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return
	}
	if rh, ok := h.(*routedHandle); ok {
		for i, sub := range rh.subs {
			s.shards[i].releaseH(sub)
		}
		return
	}
	for _, sh := range s.shards {
		sh.releaseH(h)
	}
}

// LiveHandles returns the number of handles handed out and not yet
// released (routed handles count once per shard). A serving Store should
// see this stabilize at peak connections (or pollers) times shards
// touched, plus the pool; growth proportional to connections ever
// accepted is the leak ReleaseShardHandle exists to prevent.
func (s *Store) LiveHandles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sh := range s.shards {
		n += sh.live()
	}
	return n
}

// Unreclaimed returns the store-wide retired-but-unfreed node count.
func (s *Store) Unreclaimed() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.dom.Unreclaimed()
	}
	return n
}

// PeakUnreclaimed returns the sum of per-shard unreclaimed high-water
// marks (an upper bound on the store-wide peak: the shards need not have
// peaked simultaneously).
func (s *Store) PeakUnreclaimed() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.dom.PeakUnreclaimed()
	}
	return n
}

// ShardStats returns one smr.Stats per shard with the arena live and
// quarantine gauges filled from the shard's pools.
func (s *Store) ShardStats() []smr.Stats {
	out := make([]smr.Stats, len(s.shards))
	for i, sh := range s.shards {
		st := sh.dom.Stats()
		for _, p := range sh.pools {
			ps := p.Stats()
			st.ArenaLive += ps.Live
			if p.Mode() == arena.ModeDetect {
				st.ArenaQuarantined += ps.Frees
			}
		}
		out[i] = st
	}
	return out
}

// StatsTotal aggregates the raw per-shard scheme stats (no arena fill:
// the bench harness fills arena gauges from Pools itself).
func (s *Store) StatsTotal() smr.Stats {
	per := make([]smr.Stats, len(s.shards))
	for i, sh := range s.shards {
		per[i] = sh.dom.Stats()
	}
	return AggregateStats(per)
}

// AggregateStats folds per-shard snapshots into one store-wide view:
// flows and gauges are summed, the epoch is the max (domains advance
// independently) and the epoch lag is the worst shard's lag.
func AggregateStats(per []smr.Stats) smr.Stats {
	var t smr.Stats
	for i, st := range per {
		if i == 0 {
			t.Scheme = st.Scheme
		}
		t.Unreclaimed += st.Unreclaimed
		t.PeakUnreclaimed += st.PeakUnreclaimed
		t.TotalRetired += st.TotalRetired
		t.TotalFreed += st.TotalFreed
		t.Scans += st.Scans
		t.ScanNs += st.ScanNs
		t.RetiredBudget += st.RetiredBudget
		t.HazardSlots += st.HazardSlots
		t.HazardSlotsInUse += st.HazardSlotsInUse
		t.Ejections += st.Ejections
		t.Neutralizations += st.Neutralizations
		t.NeutralizedStalled += st.NeutralizedStalled
		t.ArenaLive += st.ArenaLive
		t.ArenaQuarantined += st.ArenaQuarantined
		if st.Epoch > t.Epoch {
			t.Epoch = st.Epoch
		}
		if st.EpochLag > t.EpochLag {
			t.EpochLag = st.EpochLag
		}
	}
	if t.Scans > 0 {
		t.FreedPerScan = float64(t.TotalFreed) / float64(t.Scans)
	}
	return t
}

// ArenaTotals sums the arena accounting of every shard pool.
func (s *Store) ArenaTotals() arena.Stats {
	var t arena.Stats
	t.Name = "kvsvc"
	for _, sh := range s.shards {
		for _, p := range sh.pools {
			ps := p.Stats()
			t.Allocs += ps.Allocs
			t.Frees += ps.Frees
			t.Live += ps.Live
			t.HighWater += ps.HighWater
			t.Bytes += ps.Bytes
			t.PeakBytes += ps.PeakBytes
			t.UAF += ps.UAF
			t.DoubleFree += ps.DoubleFree
		}
	}
	return t
}

// BugCounts returns the detect-mode violation totals (use-after-free
// derefs, double frees) across every shard pool.
func (s *Store) BugCounts() (uaf, doubleFree int64) {
	t := s.ArenaTotals()
	return t.UAF, t.DoubleFree
}

// Pools lists every arena pool backing the store (one per shard).
func (s *Store) Pools() []ArenaPool {
	var ps []ArenaPool
	for _, sh := range s.shards {
		ps = append(ps, sh.pools...)
	}
	return ps
}

// Drain finishes every handle the store has handed out — flushing
// pending invalidations, reclaiming what the schemes allow, releasing
// hazard slots and guards — and runs a final reclamation pass per shard.
// Handles must not be used after Drain. Idempotent.
func (s *Store) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return
	}
	s.drained = true
	for _, sh := range s.shards {
		sh.finish()
	}
}

// Stall parks a never-progressing participant on shard 0's domain (the
// §4.4 robustness adversary, scoped to one shard by construction).
func (s *Store) Stall() { s.shards[0].dom.Stall() }

// StallRelease finishes every participant Stall parked, letting shard 0
// reclaim its backlog; pair every Stall with a StallRelease before Drain
// when the store must end fully reclaimed.
func (s *Store) StallRelease() { s.shards[0].dom.StallRelease() }

// Agitator returns a reclamation-pressure pulse covering every shard, or
// nil when the scheme has no external collection pulse (HP family, NR).
// The returned closure must be called from a single goroutine.
func (s *Store) Agitator() func() {
	var pulses []func()
	for _, sh := range s.shards {
		if sh.dom.Agitate != nil {
			pulses = append(pulses, sh.dom.Agitate)
		}
	}
	if len(pulses) == 0 {
		return nil
	}
	return func() {
		for _, p := range pulses {
			p()
		}
	}
}

// Put upserts key→val through h. The chaining maps' Insert is
// insert-if-absent, so an existing key is deleted first; the two steps
// are individually linearizable but not atomic together — concurrent
// puts to one key each win a step and the final value is one of the
// contenders', which is the usual last-writer-wins cache contract.
//
// The loop retries until its own insert wins. Each failed round means
// some operation on the key completed (our delete displaced a value, or a
// concurrent insert/delete did), so the retry is lock-free system-wide —
// an upsert can only lose a round to another contender's progress. The
// old 8-round cap turned a lost race streak on a hot key into StatusErr
// for a well-behaved client.
func Put(h Handle, key, val uint64) bool {
	for {
		if h.Insert(key, val) {
			return true
		}
		h.Delete(key)
	}
}
