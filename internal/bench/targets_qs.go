package bench

import (
	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/ds/msqueue"
	"github.com/gosmr/gosmr/internal/ds/tstack"
	"github.com/gosmr/gosmr/internal/scheme"
)

// The queue and stack are not part of the paper's Table 2 throughput
// matrix (they have no Get/Insert/Delete surface), but they ARE part of
// the safety matrix: this file registers them as first-class stress
// targets so the linearizability harness sweeps every structure.

// QueueHandle is the per-worker operation surface of queue targets.
type QueueHandle interface {
	Enqueue(val uint64)
	Dequeue() (uint64, bool)
}

// StackHandle is the per-worker operation surface of stack targets.
type StackHandle interface {
	Push(val uint64)
	Pop() (uint64, bool)
}

// QueueTarget is one (msqueue, scheme) instance under test.
type QueueTarget = TargetOf[QueueHandle]

// StackTarget is one (tstack, scheme) instance under test.
type StackTarget = TargetOf[StackHandle]

// queue registers the MS queue. It predates HP++'s optimistic traversal
// problem — original HP already protects it — so only the HP family is
// implemented.
var queue = &structure[QueueHandle]{name: "msqueue", ctors: map[scheme.Family]ctor[QueueHandle]{
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() QueueHandle, []PoolInfo) {
		pool := msqueue.NewPool(mode)
		q := msqueue.NewQueueHP(pool)
		return func() QueueHandle { return q.NewHandleHP(d.HP) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() QueueHandle, []PoolInfo) {
		pool := msqueue.NewPool(mode)
		q := msqueue.NewQueueHPP(pool)
		return func() QueueHandle { return q.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
}}

// stack registers the Treiber stack: the HP family plus every
// critical-section scheme (the CS stack works with any
// smr.GuardDomain, including the unsafefree control).
var stack = &structure[StackHandle]{name: "tstack", ctors: map[scheme.Family]ctor[StackHandle]{
	scheme.CS: func(d *scheme.Domain, mode arena.Mode) (func() StackHandle, []PoolInfo) {
		pool := tstack.NewPool(mode)
		s := tstack.NewStackCS(pool)
		return func() StackHandle { return s.NewHandleCS(d.Guards) }, []PoolInfo{pool}
	},
	scheme.HP: func(d *scheme.Domain, mode arena.Mode) (func() StackHandle, []PoolInfo) {
		pool := tstack.NewPool(mode)
		s := tstack.NewStackHP(pool)
		return func() StackHandle { return s.NewHandleHP(d.HP) }, []PoolInfo{pool}
	},
	scheme.HPP: func(d *scheme.Domain, mode arena.Mode) (func() StackHandle, []PoolInfo) {
		pool := tstack.NewPool(mode)
		s := tstack.NewStackHPP(pool)
		return func() StackHandle { return s.NewHandleHPP(d.HPP) }, []PoolInfo{pool}
	},
}}

// NewQueueTarget builds a fresh MS-queue target for one scheme.
func NewQueueTarget(name string, mode arena.Mode) (QueueTarget, error) {
	return queue.target(name, mode)
}

// NewStackTarget builds a fresh Treiber-stack target for one scheme.
func NewStackTarget(name string, mode arena.Mode) (StackTarget, error) {
	return stack.target(name, mode)
}
