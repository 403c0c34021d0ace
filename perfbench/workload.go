package main

import (
	"fmt"
	"math"
	"math/rand"
)

// spec is one named workload. Keys are partitioned by connection (or,
// in process, by goroutine): partition p owns key indexes i with
// i%parts == p, so every response has exactly one right answer under
// that partition's sequential model.
type spec struct {
	name    string
	svc     bool    // drive gosmrd over the wire (else kvsvc.Store in process)
	keys    int     // key space
	preload int     // keys present before the measured phase
	zipf    float64 // key skew; 0 is uniform
	getPct  int
	putPct  int // DEL is the rest
	// nominal is the fixed open-loop offered rate (ops/s) at which the
	// latency, CPU and failure metrics of an svc workload are taken;
	// goodput is searched upward from it.
	nominal float64
	// setups is how many server instances (svc) or store builds (store)
	// one run makes; setup_s is the median of their set-up times. A
	// store build takes about 5 ms, so one stall of the shared host
	// covers a whole run of builds; 200 of them span about 1.5 s.
	setups int
}

// parts is the number of connections (svc) or goroutines (store): the
// generator may use at most two on this two-core benchmark host.
const parts = 2

var specs = []spec{
	{name: "svc-readmost-1m", svc: true, keys: 1 << 20, preload: 1 << 20, zipf: 0.99,
		getPct: 90, putPct: 5, nominal: 150_000, setups: 5},
	// The paper's write-only mix plus a 4% GET probe, so the GET
	// latency metrics exist on this workload too: a read queued behind
	// a write-heavy shard.
	{name: "svc-writeonly-64k", svc: true, keys: 1 << 16, preload: 1 << 15,
		getPct: 4, putPct: 48, nominal: 120_000, setups: 5},
	{name: "store-readwrite-64k", keys: 1 << 16, preload: 1 << 15,
		getPct: 50, putPct: 25, setups: 200},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// mix64 is splitmix64's finalizer: a bijection, so distinct key indexes
// map to distinct wire keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyspace maps key indexes to wire keys for one seed.
type keyspace struct{ salt uint64 }

func newKeyspace(seed int64) keyspace { return keyspace{salt: mix64(uint64(seed)) << 24} }

// key returns the wire key of index i: a seed-dependent bijection of i,
// so shard placement changes with the seed while the key set stays
// collision-free.
func (ks keyspace) key(i int) uint64 { return mix64(ks.salt ^ uint64(i)) }

// preloaded reports whether key index i is present before the measured
// phase: all of them when preload == keys, else a seeded half.
func (ks keyspace) preloaded(sp spec, i int) bool {
	if sp.preload >= sp.keys {
		return true
	}
	return mix64(ks.salt^uint64(i)^0x5bd1e995)&1 == 0
}

// Values encode their key and a per-key write version, so a GET
// returning another key's value, or a version never written, is an
// integrity failure independent of ordering.
func valueOf(key uint64, ver uint32) uint64 { return uint64(keyTag(key))<<32 | uint64(ver) }

func keyTag(key uint64) uint32 { return uint32(mix64(key^0xa5a5a5a5)>>32) | 1 }

func splitValue(v uint64) (tag, ver uint32) { return uint32(v >> 32), uint32(v) }

// zipfGen draws ranks in [0, n) with P(rank) proportional to
// 1/(rank+1)^theta (Gray et al.'s generator, as in YCSB; it accepts
// theta < 1, which math/rand.Zipf does not).
type zipfGen struct {
	n                        float64
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipf(n int, theta float64) *zipfGen {
	z := &zipfGen{n: float64(n), theta: theta}
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.zetan = zetan
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfGen) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// opStream is one partition's deterministic request sequence.
type opStream struct {
	sp    spec
	rng   *rand.Rand
	zipf  *zipfGen
	local int // keys in this partition
}

func newOpStream(sp spec, seed int64, part int, zipf *zipfGen) *opStream {
	return &opStream{
		sp:    sp,
		rng:   rand.New(rand.NewSource(int64(mix64(uint64(seed)*31 + uint64(part) + 1)))),
		zipf:  zipf,
		local: sp.keys / parts,
	}
}

// next returns the next op code and the partition-local key index.
func (s *opStream) next() (op uint8, j int) {
	if s.zipf != nil {
		j = s.zipf.next(s.rng)
	} else {
		j = s.rng.Intn(s.local)
	}
	switch r := s.rng.Intn(100); {
	case r < s.sp.getPct:
		op = opGet
	case r < s.sp.getPct+s.sp.putPct:
		op = opPut
	default:
		op = opDel
	}
	return op, j
}

// zipfFor returns the shared rank generator for a skewed spec (its zeta
// constant is O(keys) to compute, so partitions share one).
func zipfFor(sp spec) *zipfGen {
	if sp.zipf == 0 {
		return nil
	}
	return newZipf(sp.keys/parts, sp.zipf)
}
