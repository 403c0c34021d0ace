package bench

import (
	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/ds/bonsai"
	"github.com/gosmr/gosmr/internal/ds/efrbtree"
	"github.com/gosmr/gosmr/internal/ds/nmtree"
	"github.com/gosmr/gosmr/internal/ds/skiplist"
	"github.com/gosmr/gosmr/internal/scheme"
)

// The tree and skiplist constructors; targets.go registers them.

// skiplistSeeds returns a per-target handle seed stream, so towers are
// reproducible run to run.
func skiplistSeeds() func() uint64 {
	var seed uint64 = 0x51ED5EED
	return func() uint64 { seed += 0x9E3779B97F4A7C15; return seed }
}

var skiplistCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := skiplist.NewPool(mode)
		l := skiplist.NewListCS(pool)
		next := skiplistSeeds()
		return func() Handle {
			h := l.NewHandleCS(d.Guards)
			h.Seed(next())
			return h
		}, []PoolInfo{pool}
	},
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := skiplist.NewPool(mode)
		l := skiplist.NewListHP(pool)
		next := skiplistSeeds()
		return func() Handle {
			h := l.NewHandleHP(d.HP)
			h.Seed(next())
			return h
		}, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := skiplist.NewPool(mode)
		l := skiplist.NewListHPP(pool)
		next := skiplistSeeds()
		return func() Handle {
			h := l.NewHandleHPP(d.HPP)
			h.Seed(next())
			return h
		}, []PoolInfo{pool}
	},
	scheme.RC: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := skiplist.NewPoolRC(mode)
		l := skiplist.NewListRC(pool)
		next := skiplistSeeds()
		return func() Handle {
			h := l.NewHandleRC(d.RC)
			h.Seed(next())
			return h
		}, []PoolInfo{pool}
	},
}

var nmtreeCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := nmtree.NewPool(mode)
		tr := nmtree.NewTreeCS(pool)
		return func() Handle { return tr.NewHandleCS(d.Guards) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := nmtree.NewPool(mode)
		tr := nmtree.NewTreeHPP(pool)
		return func() Handle { return tr.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
}

var efrbCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		nodes, infos := efrbtree.NewNodePool(mode), efrbtree.NewInfoPool(mode)
		tr := efrbtree.NewTreeCS(nodes, infos)
		return func() Handle { return tr.NewHandleCS(d.Guards) }, []PoolInfo{nodes, infos}
	},
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		nodes, infos := efrbtree.NewNodePool(mode), efrbtree.NewInfoPool(mode)
		tr := efrbtree.NewTreeHP(nodes, infos)
		return func() Handle { return tr.NewHandleHP(d.HP) }, []PoolInfo{nodes, infos}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		nodes, infos := efrbtree.NewNodePool(mode), efrbtree.NewInfoPool(mode)
		tr := efrbtree.NewTreeHPP(nodes, infos)
		return func() Handle { return tr.NewHandleHPP(d.HPP) }, []PoolInfo{nodes, infos}
	},
}

var bonsaiCtors = map[scheme.Family]ctor[Handle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := bonsai.NewPool(mode)
		tr := bonsai.NewTreeCS(pool)
		return func() Handle { return tr.NewHandleCS(d.Guards) }, []PoolInfo{pool}
	},
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := bonsai.NewPool(mode)
		tr := bonsai.NewTreeHP(pool)
		return func() Handle { return tr.NewHandleHP(d.HP) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := bonsai.NewPool(mode)
		tr := bonsai.NewTreeHPP(pool)
		return func() Handle { return tr.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
	scheme.RC: func(d *scheme.Domain, mode arena.Mode) (func() Handle, []PoolInfo) {
		pool := bonsai.NewPoolRC(mode)
		tr := bonsai.NewTreeRC(pool)
		return func() Handle { return tr.NewHandleRC(d.RC) }, []PoolInfo{pool}
	},
}
