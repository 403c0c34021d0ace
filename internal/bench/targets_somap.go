package bench

import (
	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/ds/hhslist"
	"github.com/gosmr/gosmr/internal/ds/hmlist"
	"github.com/gosmr/gosmr/internal/ds/somap"
	"github.com/gosmr/gosmr/internal/scheme"
)

// Somap target knobs, read at target construction like FixedReclaimEvery.
// The defaults give a small map that still grows under bench workloads;
// the stress harness's resize-storm fault sets them to (2, 1) so
// directory doublings and dummy splices happen constantly while faults
// are injected.
var (
	// SomapInitialBuckets is the initial directory size for new somap
	// targets (rounded up to a power of two).
	SomapInitialBuckets = 64
	// SomapMaxLoad is the items-per-bucket threshold that doubles the
	// directory.
	SomapMaxLoad = 4
)

func somapCfg() somap.Config {
	return somap.Config{InitialBuckets: SomapInitialBuckets, MaxLoad: SomapMaxLoad}
}

var somapCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		m := somap.NewMapCS(pool, somapCfg())
		return func() Handle { return m.NewHandleCS(d.Guards) }, []PoolInfo{pool}
	},
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hmlist.NewPool(mode)
		m := somap.NewMapHP(pool, somapCfg())
		return func() Handle { return m.NewHandleHP(d.HP) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		m := somap.NewMapHPP(pool, somapCfg())
		return func() Handle { return m.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
	scheme.SCOT: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := hhslist.NewPool(mode)
		m := somap.NewMapSCOT(pool, somapCfg())
		return func() Handle { return m.NewHandleSCOT(d.HP) }, []PoolInfo{pool}
	},
}
