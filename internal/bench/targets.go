package bench

import (
	"fmt"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/ds/hashmap"
	"github.com/gosmr/gosmr/internal/ds/hhslist"
	"github.com/gosmr/gosmr/internal/ds/hmlist"
	"github.com/gosmr/gosmr/internal/scheme"
)

// FixedReclaimEvery, when set > 0 before target construction, pins every
// scheme to the classic fixed per-thread cadence (ReclaimEvery /
// CollectEvery) instead of the shared-budget adaptive trigger. It is the
// ablation knob behind smrbench's -fixedcadence flag, used to compare
// per-thread against domain-wide accounting; leave it 0 for the default
// adaptive behaviour.
var FixedReclaimEvery int

// ctor builds one family's variant of a data structure over a live
// domain: it returns the per-worker handle constructor and the arena
// pools backing the instance.
type ctor[H any] func(d *scheme.Domain, mode arena.Mode) (newHandle func() H, pools []PoolInfo)

// structure registers a data structure: one constructor per scheme
// family it implements. A scheme applies to the structure exactly when
// its family has a constructor — the Table 2 facts the benchmark
// enforces: original HP cannot protect optimistic traversal (hhslist
// and nmtree have no HP variant), SCOT exists for the two lists and the
// maps built from them, and RC cannot break the EFRB tree's descriptor
// cycles.
type structure[H any] struct {
	name  string
	ctors map[scheme.Family]ctor[H]
	// novalidate reports that the SCOT variant honours
	// Desc.SkipValidation, so the SCOT must-fail control runs here.
	novalidate bool
	// build, if set, replaces the shared assembly: the kvmap store
	// brings its own per-shard domains.
	build func(s *scheme.Desc, mode arena.Mode) (TargetOf[H], error)
}

func (st *structure[H]) applicable(s *scheme.Desc) bool {
	return st.ctors[s.Family] != nil && (!s.SkipValidation || st.novalidate)
}

// target looks name up and assembles the target: every handle is
// recorded so Finish can finish it through the domain, then drain.
func (st *structure[H]) target(name string, mode arena.Mode) (TargetOf[H], error) {
	s, ok := scheme.Lookup(name)
	if !ok {
		return TargetOf[H]{}, fmt.Errorf("bench: unknown scheme %q", name)
	}
	if !st.applicable(s) {
		return TargetOf[H]{}, fmt.Errorf("bench: %s is not applicable to %s (Table 2)", name, st.name)
	}
	if st.build != nil {
		return st.build(s, mode)
	}
	d := s.New(FixedReclaimEvery)
	newHandle, pools := st.ctors[s.Family](d, mode)
	var live []H
	return TargetOf[H]{
		DS:     st.name,
		Scheme: name,
		NewHandle: func() H {
			h := newHandle()
			live = append(live, h)
			return h
		},
		Finish: func() {
			for _, h := range live {
				d.FinishHandle(h)
			}
			live = nil
			d.Drain()
		},
		Unreclaimed:     d.Unreclaimed,
		PeakUnreclaimed: d.PeakUnreclaimed,
		Stats:           d.Stats,
		MemBytes: func() int64 {
			var n int64
			for _, p := range pools {
				n += p.Stats().Bytes
			}
			return n
		},
		Stall:        d.Stall,
		StallRelease: d.StallRelease,
		Pools:        pools,
		Agitate:      d.Agitate,
	}, nil
}

// maps registers the map-style structures, in figure order.
var maps = []*structure[Handle]{
	{name: "hmlist", ctors: hmlistCtors},
	// The one SCOT control cell: hashmap and somap reuse hhslist's SCOT
	// code, so a second cell there would test nothing new.
	{name: "hhslist", ctors: hhslistCtors, novalidate: true},
	{name: "hashmap", ctors: hashmapCtors},
	{name: "somap", ctors: somapCtors},
	{name: "skiplist", ctors: skiplistCtors},
	{name: "nmtree", ctors: nmtreeCtors},
	{name: "efrbtree", ctors: efrbCtors},
	{name: "bonsai", ctors: bonsaiCtors},
	// kvmap is the kvsvc store over somap shards: it applies wherever
	// somap does.
	{name: "kvmap", ctors: somapCtors, build: newKVMapTarget},
}

// DataStructures lists the registered map-style data structures.
func DataStructures() []string {
	out := make([]string, len(maps))
	for i, st := range maps {
		out[i] = st.name
	}
	return out
}

// Applicable reports whether scheme applies to ds: whether ds has a
// variant for the scheme's family.
func Applicable(ds, name string) bool {
	s, ok := scheme.Lookup(name)
	if !ok {
		return false
	}
	switch ds {
	case queue.name:
		return queue.applicable(s)
	case stack.name:
		return stack.applicable(s)
	}
	for _, st := range maps {
		if st.name == ds {
			return st.applicable(s)
		}
	}
	return false
}

// SchemesFor lists, in table order, the benchmark schemes (controls
// excluded) that apply to ds.
func SchemesFor(ds string) []string {
	return scheme.Names(func(s *scheme.Desc) bool { return Applicable(ds, s.Name) })
}

// NewTarget builds a fresh benchmark target for one (ds, scheme) pair.
func NewTarget(ds, name string, mode arena.Mode) (Target, error) {
	for _, st := range maps {
		if st.name == ds {
			return st.target(name, mode)
		}
	}
	return Target{}, fmt.Errorf("bench: unknown data structure %q", ds)
}

var hmlistCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hmlist.NewPool(mode)
		l := hmlist.NewListCS(pool)
		return func() Handle { return l.NewHandleCS(d.Guards) }, []PoolInfo{pool}
	},
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hmlist.NewPool(mode)
		l := hmlist.NewListHP(pool)
		return func() Handle { return l.NewHandleHP(d.HP) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hmlist.NewPool(mode)
		l := hmlist.NewListHPP(pool)
		return func() Handle { return l.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
	scheme.SCOT: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hmlist.NewPool(mode)
		l := hmlist.NewListSCOT(pool)
		return func() Handle { return l.NewHandleSCOT(d.HP) }, []PoolInfo{pool}
	},
	scheme.RC: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hmlist.NewPoolRC(mode)
		l := hmlist.NewListRC(pool)
		return func() Handle { return l.NewHandleRC(d.RC) }, []PoolInfo{pool}
	},
}

var hhslistCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		l := hhslist.NewListCS(pool)
		return func() Handle { return l.NewHandleCS(d.Guards) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		l := hhslist.NewListHPP(pool)
		return func() Handle { return l.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
	scheme.SCOT: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		l := hhslist.NewListSCOT(pool)
		// The novalidate control announces hazards but skips the SCOT
		// handshake — detect-mode stress must flag it.
		l.SkipValidation = d.SkipValidation
		return func() Handle { return l.NewHandleSCOT(d.HP) }, []PoolInfo{pool}
	},
	scheme.RC: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPoolRC(mode)
		l := hhslist.NewListRC(pool)
		return func() Handle { return l.NewHandleRC(d.RC) }, []PoolInfo{pool}
	},
}

var hashmapCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		m := hashmap.NewMapCS(pool, hashmap.DefaultBuckets)
		return func() Handle { return m.NewHandleCS(d.Guards) }, []PoolInfo{pool}
	},
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hmlist.NewPool(mode)
		m := hashmap.NewMapHP(pool, hashmap.DefaultBuckets)
		return func() Handle { return m.NewHandleHP(d.HP) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		m := hashmap.NewMapHPP(pool, hashmap.DefaultBuckets)
		return func() Handle { return m.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
	scheme.SCOT: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		m := hashmap.NewMapSCOT(pool, hashmap.DefaultBuckets)
		return func() Handle { return m.NewHandleSCOT(d.HP) }, []PoolInfo{pool}
	},
	scheme.RC: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPoolRC(mode)
		m := hashmap.NewMapRC(pool, hashmap.DefaultBuckets)
		return func() Handle { return m.NewHandleRC(d.RC) }, []PoolInfo{pool}
	},
}
