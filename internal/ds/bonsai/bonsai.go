// Package bonsai implements a non-blocking variant of the Bonsai tree
// (Clements, Kaashoek, Zeldovich — ASPLOS 2012), the copy-on-write
// weight-balanced search tree of the HP++ paper's evaluation.
//
// The tree is a persistent (immutable-node) weight-balanced BST behind a
// single atomic root. Writers rebuild the path from the root to the
// affected position — rebalancing with the Hirai-Yamamoto (3,2) rotation
// rules — and publish the new version with one CAS on the root; the
// replaced path nodes are then retired. Readers traverse an immutable
// snapshot.
//
// Reclamation characteristics reproduce §5's observations:
//
//   - EBR/PEBR/NR: snapshots are free under an epoch pin.
//   - HP: every protection must be validated against the root pointer and
//     fails whenever ANY write committed — the cause of Bonsai's poor HP
//     throughput in Figure 8.
//   - HP++: protections fail only when a source node was invalidated; the
//     root CAS protects the old nodes the new version reuses (its
//     frontier) until the replaced path is invalidated, right after the
//     CAS.
//   - RC: every copied path node touches its children's counters, which
//     is why RC collapses on Bonsai in the paper.
package bonsai

import (
	"sync/atomic"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/tagptr"
)

// Node is an immutable tree node. left/right are written at construction
// and (for the Invalid bit on left) at invalidation only.
type Node struct {
	left  atomic.Uint64
	right atomic.Uint64
	size  uint64 // subtree size, for weight balancing
	key   uint64
	val   uint64
}

// Pool allocates tree nodes and implements core.Invalidator.
type Pool struct {
	*arena.Pool[Node]
}

// NewPool creates a node pool.
func NewPool(mode arena.Mode) Pool {
	return Pool{arena.NewPool[Node]("bonsai", mode)}
}

// Invalidate sets the Invalid bit on the node's left word.
func (p Pool) Invalidate(ref uint64) {
	n := p.Deref(ref)
	n.left.Store(n.left.Load() | tagptr.Invalid)
}

// view is a local copy of a node's fields taken under protection.
type view struct {
	key, val    uint64
	left, right uint64
	size        uint64
}

// protector is the per-scheme protection hook used by the shared builder.
// depth selects a slot (implementations may use a small ring: only the
// current node, its source, and two rotation scratch levels need to stay
// protected simultaneously).
type protector interface {
	// enter protects ref — loaded from parent's left (fromLeft) or right
	// field, or from the tree root if parent is zero — and returns a
	// snapshot of its fields. ok=false aborts the write attempt.
	enter(depth int, ref, parent uint64, fromLeft bool) (view, bool)
}

// builder constructs the new version of the tree for one write attempt.
type builder struct {
	pool     Pool
	prot     protector
	newNodes []uint64
	replaced []uint64
	ok       bool
}

func (b *builder) reset() {
	b.newNodes = b.newNodes[:0]
	b.replaced = b.replaced[:0]
	b.ok = true
}

func (b *builder) isNew(ref uint64) bool {
	for _, n := range b.newNodes {
		if n == ref {
			return true
		}
	}
	return false
}

// mk allocates a fresh node.
func (b *builder) mk(key, val, l, r, sl, sr uint64) (uint64, uint64) {
	ref, nd := b.pool.Alloc()
	nd.key, nd.val = key, val
	nd.size = sl + sr + 1
	nd.left.Store(tagptr.Pack(l, 0))
	nd.right.Store(tagptr.Pack(r, 0))
	b.newNodes = append(b.newNodes, ref)
	return ref, nd.size
}

// viewOf snapshots ref's fields: directly for nodes this attempt created,
// through the protector for shared (old) nodes.
func (b *builder) viewOf(depth int, ref, parent uint64, fromLeft bool) (view, bool) {
	if ref == 0 {
		return view{}, true
	}
	if b.isNew(ref) {
		nd := b.pool.Deref(ref)
		return view{
			key: nd.key, val: nd.val,
			left:  tagptr.RefOf(nd.left.Load()),
			right: tagptr.RefOf(nd.right.Load()),
			size:  nd.size,
		}, true
	}
	return b.prot.enter(depth, ref, parent, fromLeft)
}

// sizeOf returns ref's subtree size (0 for nil), protecting as needed.
func (b *builder) sizeOf(depth int, ref, parent uint64, fromLeft bool) uint64 {
	if ref == 0 {
		return 0
	}
	v, ok := b.viewOf(depth, ref, parent, fromLeft)
	if !ok {
		b.ok = false
		return 0
	}
	return v.size
}

// consume records that ref's contents were superseded by this attempt.
func (b *builder) consume(ref uint64) {
	b.replaced = append(b.replaced, ref)
}

// tooHeavy reports the (3,2) weight-balance violation: a subtree of
// weight a+1 may be at most 3x its sibling's weight b+1.
func tooHeavy(a, b uint64) bool { return a+1 > 3*(b+1) }

// balance builds a node (k,v) over subtrees l and r, rotating if one side
// is too heavy. parent is the old node being replaced (still protected at
// depth d by the caller), the protection source for old children.
func (b *builder) balance(d int, k, val, l, sl, r, sr, parent uint64) (uint64, uint64) {
	if !b.ok {
		return 0, 0
	}
	switch {
	case tooHeavy(sr, sl): // right heavy
		rv, ok := b.viewOf(d+1, r, parent, false)
		if !ok {
			b.ok = false
			return 0, 0
		}
		srl := b.sizeOf(d+2, rv.left, r, true)
		srr := b.sizeOf(d+2, rv.right, r, false)
		if !b.ok {
			return 0, 0
		}
		b.consume(r)
		if srl+1 < 2*(srr+1) { // single left rotation
			nl, nsl := b.mk(k, val, l, rv.left, sl, srl)
			return b.mk(rv.key, rv.val, nl, rv.right, nsl, srr)
		}
		// double rotation: lift r.left
		rlv, ok := b.viewOf(d+2, rv.left, r, true)
		if !ok {
			b.ok = false
			return 0, 0
		}
		srll := b.sizeOf(d+3, rlv.left, rv.left, true)
		srlr := b.sizeOf(d+3, rlv.right, rv.left, false)
		if !b.ok {
			return 0, 0
		}
		b.consume(rv.left)
		nl, nsl := b.mk(k, val, l, rlv.left, sl, srll)
		nr, nsr := b.mk(rv.key, rv.val, rlv.right, rv.right, srlr, srr)
		return b.mk(rlv.key, rlv.val, nl, nr, nsl, nsr)

	case tooHeavy(sl, sr): // left heavy (mirror)
		lv, ok := b.viewOf(d+1, l, parent, true)
		if !ok {
			b.ok = false
			return 0, 0
		}
		sll := b.sizeOf(d+2, lv.left, l, true)
		slr := b.sizeOf(d+2, lv.right, l, false)
		if !b.ok {
			return 0, 0
		}
		b.consume(l)
		if slr+1 < 2*(sll+1) { // single right rotation
			nr, nsr := b.mk(k, val, lv.right, r, slr, sr)
			return b.mk(lv.key, lv.val, lv.left, nr, sll, nsr)
		}
		lrv, ok := b.viewOf(d+2, lv.right, l, false)
		if !ok {
			b.ok = false
			return 0, 0
		}
		slrl := b.sizeOf(d+3, lrv.left, lv.right, true)
		slrr := b.sizeOf(d+3, lrv.right, lv.right, false)
		if !b.ok {
			return 0, 0
		}
		b.consume(lv.right)
		nl, nsl := b.mk(lv.key, lv.val, lv.left, lrv.left, sll, slrl)
		nr, nsr := b.mk(k, val, lrv.right, r, slrr, sr)
		return b.mk(lrv.key, lrv.val, nl, nr, nsl, nsr)
	}
	return b.mk(k, val, l, r, sl, sr)
}

// insertRec returns the rebuilt subtree. existed=true means key was
// already present and nothing was built.
func (b *builder) insertRec(d int, n, parent uint64, fromLeft bool, key, val uint64) (ref, size uint64, existed bool) {
	if !b.ok {
		return 0, 0, false
	}
	if n == 0 {
		ref, size = b.mk(key, val, 0, 0, 0, 0)
		return ref, size, false
	}
	v, ok := b.prot.enter(d, n, parent, fromLeft)
	if !ok {
		b.ok = false
		return 0, 0, false
	}
	if v.key == key {
		return n, v.size, true
	}
	if key < v.key {
		nl, sl, ex := b.insertRec(d+1, v.left, n, true, key, val)
		if !b.ok || ex {
			return n, v.size, ex
		}
		sr := b.sizeOf(d+1, v.right, n, false)
		if !b.ok {
			return 0, 0, false
		}
		b.consume(n)
		ref, size = b.balance(d, v.key, v.val, nl, sl, v.right, sr, n)
		return ref, size, false
	}
	nr, sr, ex := b.insertRec(d+1, v.right, n, false, key, val)
	if !b.ok || ex {
		return n, v.size, ex
	}
	sl := b.sizeOf(d+1, v.left, n, true)
	if !b.ok {
		return 0, 0, false
	}
	b.consume(n)
	ref, size = b.balance(d, v.key, v.val, v.left, sl, nr, sr, n)
	return ref, size, false
}

// deleteRec returns the rebuilt subtree with key removed; found=false
// means key was absent and nothing was built.
func (b *builder) deleteRec(d int, n, parent uint64, fromLeft bool, key uint64) (ref, size uint64, found bool) {
	if !b.ok || n == 0 {
		return 0, 0, false
	}
	v, ok := b.prot.enter(d, n, parent, fromLeft)
	if !ok {
		b.ok = false
		return 0, 0, false
	}
	switch {
	case key == v.key:
		b.consume(n)
		switch {
		case v.left == 0 && v.right == 0:
			return 0, 0, true
		case v.left == 0:
			return v.right, b.sizeOf(d+1, v.right, n, false), true
		case v.right == 0:
			return v.left, b.sizeOf(d+1, v.left, n, true), true
		default:
			mk, mv, nr, snr := b.popMin(d+1, v.right, n, false)
			if !b.ok {
				return 0, 0, false
			}
			sl := b.sizeOf(d+1, v.left, n, true)
			if !b.ok {
				return 0, 0, false
			}
			ref, size = b.balance(d, mk, mv, v.left, sl, nr, snr, n)
			return ref, size, true
		}
	case key < v.key:
		nl, sl, f := b.deleteRec(d+1, v.left, n, true, key)
		if !b.ok || !f {
			return n, v.size, f
		}
		sr := b.sizeOf(d+1, v.right, n, false)
		if !b.ok {
			return 0, 0, false
		}
		b.consume(n)
		ref, size = b.balance(d, v.key, v.val, nl, sl, v.right, sr, n)
		return ref, size, true
	default:
		nr, sr, f := b.deleteRec(d+1, v.right, n, false, key)
		if !b.ok || !f {
			return n, v.size, f
		}
		sl := b.sizeOf(d+1, v.left, n, true)
		if !b.ok {
			return 0, 0, false
		}
		b.consume(n)
		ref, size = b.balance(d, v.key, v.val, v.left, sl, nr, sr, n)
		return ref, size, true
	}
}

// popMin removes and returns the minimum of subtree n.
func (b *builder) popMin(d int, n, parent uint64, fromLeft bool) (minKey, minVal, ref, size uint64) {
	if !b.ok {
		return 0, 0, 0, 0
	}
	v, ok := b.prot.enter(d, n, parent, fromLeft)
	if !ok {
		b.ok = false
		return 0, 0, 0, 0
	}
	if v.left == 0 {
		b.consume(n)
		return v.key, v.val, v.right, b.sizeOf(d+1, v.right, n, false)
	}
	mk, mv, nl, snl := b.popMin(d+1, v.left, n, true)
	if !b.ok {
		return 0, 0, 0, 0
	}
	sr := b.sizeOf(d+1, v.right, n, false)
	if !b.ok {
		return 0, 0, 0, 0
	}
	b.consume(n)
	ref, size = b.balance(d, v.key, v.val, nl, snl, v.right, sr, n)
	return mk, mv, ref, size
}

// splitGarbage partitions the attempt's bookkeeping after a successful
// publish: nodes this attempt created and then superseded (rotation
// intermediates) can be freed immediately — they were never shared —
// while replaced old nodes must go through reclamation. It returns the
// list of old nodes to retire, freeing the private intermediates as a
// side effect.
func (b *builder) splitGarbage() []uint64 {
	old := b.replaced[:0]
	for _, r := range b.replaced {
		if b.isNew(r) {
			b.pool.Free(r)
		} else {
			old = append(old, r)
		}
	}
	return old
}

// abort frees every node the attempt created (none were published).
func (b *builder) abort() {
	// Rotation intermediates may appear in replaced too; every created
	// node is in newNodes exactly once, so freeing newNodes is complete.
	for _, n := range b.newNodes {
		b.pool.Free(n)
	}
	b.newNodes = b.newNodes[:0]
	b.replaced = b.replaced[:0]
}
