package efrbtree

import (
	"github.com/gosmr/gosmr/internal/smr"
	"github.com/gosmr/gosmr/internal/tagptr"
)

// Shield slots for the smr.Guard protocol.
const (
	slotGP = iota
	slotP
	slotL
	slotOp  // descriptor being helped
	slotSib // the new internal / survivor subtree during helping
	csSlots
)

// TreeCS is the EFRB tree for critical-section schemes (EBR, PEBR, NR).
type TreeCS struct {
	nodes NodePool
	infos InfoPool
	root  uint64
}

// NewTreeCS creates a tree (with sentinels) over the two pools.
func NewTreeCS(nodes NodePool, infos InfoPool) *TreeCS {
	return &TreeCS{nodes: nodes, infos: infos, root: newTree(nodes)}
}

// NewHandleCS returns a per-worker handle.
func (t *TreeCS) NewHandleCS(dom smr.GuardDomain) *HandleCS {
	return &HandleCS{t: t, g: dom.NewGuard(csSlots)}
}

// HandleCS is a per-worker handle; not safe for concurrent use.
type HandleCS struct {
	t *TreeCS
	g smr.Guard
}

// Guard exposes the underlying guard.
func (h *HandleCS) Guard() smr.Guard { return h.g }

func (h *HandleCS) restart() {
	h.g.Unpin()
	h.g.Pin()
}

// search descends to the leaf for key, recording gp, p and the update
// words seen.
func (h *HandleCS) search(key uint64) searchResult {
	t := h.t
retry:
	var res searchResult
	res.l = t.root
	if !h.g.Track(slotL, res.l) {
		h.restart()
		goto retry
	}
	for {
		nd := t.nodes.Deref(res.l)
		// Read the update word BEFORE the child edge: the descriptor
		// protocol relies on "update word unchanged ⟹ children
		// unchanged", which only holds for reads in this order.
		upd := nd.update.Load()
		w := childEdge(nd, key).Load()
		child := tagptr.RefOf(w)
		if child == 0 {
			return res
		}
		res.gp, res.gpupdate = res.p, res.pupdate
		res.p = res.l
		res.pupdate = upd
		h.g.Track(slotGP, res.gp)
		h.g.Track(slotP, res.p)
		res.l = child
		if !h.g.Track(slotL, res.l) {
			h.restart()
			goto retry
		}
	}
}

// Get returns the value stored under key.
func (h *HandleCS) Get(key uint64) (uint64, bool) {
	h.g.Pin()
	defer h.g.Unpin()
	res := h.search(key)
	nd := h.t.nodes.Deref(res.l)
	if nd.key == key {
		return nd.val, true
	}
	return 0, false
}

// help advances the operation published in update word w. Helping is
// best-effort: if the guard was neutralized the help is skipped and the
// caller's retry loop re-validates.
func (h *HandleCS) help(w tagptr.Word) {
	info := infoOf(w)
	if info == 0 || !h.g.Track(slotOp, info) {
		return
	}
	switch stateOf(w) {
	case stateIFlag:
		h.helpInsert(info)
	case stateDFlag:
		h.helpDelete(info) //nolint — best-effort helper path
	}
	// MARK words are permanent, so they cannot validate that their
	// descriptor is still unreclaimed; helping a marked parent happens
	// through its grandparent's (transient) DFLAG word instead.
}

// casChild swaps parent's child edge from old to new, keyed by new's key.
func (t *TreeCS) casChild(parent, old, new uint64) bool {
	pn := t.nodes.Deref(parent)
	key := t.nodes.Deref(new).key
	edge := childEdge(pn, key)
	return edge.CompareAndSwap(tagptr.Pack(old, 0), tagptr.Pack(new, 0))
}

// helpInsert completes an insert: splice in the new internal node, then
// unflag p. aborted=true means the guard was neutralized before the help
// could run; the owner must re-pin and retry, helpers may just drop it.
func (h *HandleCS) helpInsert(info uint64) (aborted bool) {
	t := h.t
	op := t.infos.Deref(info)
	if !h.g.Track(slotP, op.p) || !h.g.Track(slotSib, op.newInternal) {
		return true
	}
	t.casChild(op.p, op.l, op.newInternal)
	t.nodes.Deref(op.p).update.CompareAndSwap(
		packUpdate(info, stateIFlag), packUpdate(info, stateClean))
	return false
}

// helpDelete tries to mark the parent; on success the splice proceeds,
// otherwise the grandparent is unflagged (backtrack). done reports
// completion (as opposed to backtrack); aborted reports neutralization —
// the owner must re-pin and retry, helpers may drop it.
func (h *HandleCS) helpDelete(info uint64) (done, aborted bool) {
	t := h.t
	op := t.infos.Deref(info)
	// Copy the fields before any nested helping: helpUpdateOf re-targets
	// slotOp at a foreign descriptor, after which op must not be touched.
	gp, p, pupdate := op.gp, op.p, op.pupdate
	if !h.g.Track(slotP, p) || !h.g.Track(slotGP, gp) {
		return false, true
	}
	pn := t.nodes.Deref(p)
	marked := packUpdate(info, stateMark)
	if pn.update.CompareAndSwap(pupdate, marked) {
		// The mark displaced p's previous descriptor: retire it.
		if prev := infoOf(pupdate); prev != 0 {
			h.g.Retire(prev, t.infos)
		}
		return true, h.helpMarked(info)
	}
	if pn.update.Load() == marked {
		return true, h.helpMarked(info)
	}
	// Someone else owns p: back the delete out, then help them. The
	// backtrack goes first because nested helping re-targets the shield
	// slots, after which gp is no longer announced: a guard neutralized
	// (NBR) or ejected (PEBR) mid-help would then touch an unprotected gp.
	t.nodes.Deref(gp).update.CompareAndSwap(
		packUpdate(info, stateDFlag), packUpdate(info, stateClean))
	h.helpUpdateOf(p)
	return false, false
}

// helpUpdateOf helps whatever operation currently owns node's update word.
// node must be tracked by the caller.
func (h *HandleCS) helpUpdateOf(node uint64) {
	w := h.t.nodes.Deref(node).update.Load()
	if stateOf(w) != stateClean {
		h.help(w)
	}
}

// helpMarked performs the physical deletion: splice p (and the victim
// leaf l) out of gp, retire both, and unflag gp. aborted reports
// neutralization before completion.
func (h *HandleCS) helpMarked(info uint64) (aborted bool) {
	t := h.t
	op := t.infos.Deref(info)
	if !h.g.Track(slotP, op.p) || !h.g.Track(slotGP, op.gp) || !h.g.Track(slotL, op.l) {
		return true
	}
	pn := t.nodes.Deref(op.p)
	// p is marked, so its children are frozen: pick the survivor.
	l := tagptr.RefOf(pn.left.Load())
	r := tagptr.RefOf(pn.right.Load())
	var other uint64
	switch op.l {
	case r:
		other = l
	case l:
		other = r
	default:
		// Defensive: the descriptor does not match p's children (only
		// possible through descriptor ABA); do not splice blindly.
		DbgMismatch.Add(1)
		return false
	}
	gpn := t.nodes.Deref(op.gp)
	edge := childEdge(gpn, t.nodes.Deref(op.l).key)
	// If the survivor is a leaf, promote a fresh copy: child-edge words
	// must never repeat, or a stale helper's child CAS could re-link a
	// detached subtree (leaf refs are the only values that can recur —
	// a deleted insert re-promotes the original leaf to the same edge).
	if !h.g.Track(slotSib, other) {
		return true
	}
	p, victim := op.p, op.l
	var unlinked [3]uint64
	n := 0
	on := t.nodes.Deref(other)
	if tagptr.RefOf(on.left.Load()) == 0 {
		cp, cn := t.nodes.Alloc()
		cn.key, cn.val = on.key, on.val
		cn.update.Store(0)
		cn.left.Store(0)
		cn.right.Store(0)
		if edge.CompareAndSwap(tagptr.Pack(p, 0), tagptr.Pack(cp, 0)) {
			unlinked, n = [3]uint64{p, victim, other}, 3
		} else {
			t.nodes.Free(cp)
		}
	} else if edge.CompareAndSwap(tagptr.Pack(p, 0), tagptr.Pack(other, 0)) {
		unlinked, n = [3]uint64{p, victim}, 2
	}
	gpn.update.CompareAndSwap(packUpdate(info, stateDFlag), packUpdate(info, stateClean))
	// Retire only after gp stops showing DFLAG(info) (every helper's
	// unflag CAS leaves it clean): until then a helper that pins now can
	// still reach p, the victim and the survivor through the descriptor,
	// and the epoch no longer covers it when the splicer was neutralized
	// (NBR) or ejected (PEBR) after its own pin.
	for _, ref := range unlinked[:n] {
		h.g.Retire(ref, t.nodes)
	}
	return false
}

// flagCAS installs a new descriptor on node, retiring the one it
// replaces.
func (h *HandleCS) flagCAS(node uint64, old tagptr.Word, info uint64, state uint64) bool {
	if !h.t.nodes.Deref(node).update.CompareAndSwap(old, packUpdate(info, state)) {
		return false
	}
	if prev := infoOf(old); prev != 0 {
		h.g.Retire(prev, h.t.infos)
	}
	return true
}

// Insert adds key→val; it fails if key is already present.
func (h *HandleCS) Insert(key, val uint64) bool {
	h.g.Pin()
	defer h.g.Unpin()
	t := h.t
	var newLeaf, newInternal, info uint64
	for {
		res := h.search(key)
		leaf := t.nodes.Deref(res.l)
		if leaf.key == key {
			if newLeaf != 0 {
				t.nodes.Free(newLeaf)
				t.nodes.Free(newInternal)
				t.infos.Free(info)
			}
			return false
		}
		if stateOf(res.pupdate) == stateMark {
			// p is being deleted: help through its parent's DFLAG, whose
			// word-validated descriptor is safe to follow.
			if res.gp != 0 && stateOf(res.gpupdate) == stateDFlag {
				h.help(res.gpupdate)
			}
			continue
		}
		if stateOf(res.pupdate) != stateClean {
			h.help(res.pupdate)
			continue
		}
		if newLeaf == 0 {
			newLeaf, _ = t.nodes.Alloc()
			newInternal, _ = t.nodes.Alloc()
			info, _ = t.infos.Alloc()
		}
		nl := t.nodes.Deref(newLeaf)
		nl.key, nl.val = key, val
		nl.update.Store(0)
		nl.left.Store(0)
		nl.right.Store(0)
		ni := t.nodes.Deref(newInternal)
		ni.update.Store(0)
		if key < leaf.key {
			ni.key = leaf.key
			ni.left.Store(tagptr.Pack(newLeaf, 0))
			ni.right.Store(tagptr.Pack(res.l, 0))
		} else {
			ni.key = key
			ni.left.Store(tagptr.Pack(res.l, 0))
			ni.right.Store(tagptr.Pack(newLeaf, 0))
		}
		op := t.infos.Deref(info)
		op.kind = kindInsert
		op.p, op.l, op.newInternal = res.p, res.l, newInternal
		op.gp, op.pupdate = 0, 0

		// Shield our descriptor before publishing it: once helpers can
		// complete the operation, a successor flag may retire it, and an
		// ejected owner is not covered by its epoch.
		h.g.Track(slotOp, info)
		if h.flagCAS(res.p, res.pupdate, info, stateIFlag) {
			iflagged := packUpdate(info, stateIFlag)
			for h.helpInsert(info) {
				// Neutralized mid-help: recover, then re-validate that our
				// descriptor is still installed before dereferencing it
				// again — helpers may have completed the op and a later
				// flag may have retired (and freed) the descriptor. res.p
				// has been shielded continuously since the search, so its
				// update word is always safe to read.
				h.restart()
				if !h.g.Track(slotOp, info) {
					continue // ejected again before the shield settled
				}
				if t.nodes.Deref(res.p).update.Load() != iflagged {
					return true // completed by helpers
				}
			}
			return true
		}
		h.helpUpdateOf(res.p)
	}
}

// Delete removes key, reporting whether it was present.
func (h *HandleCS) Delete(key uint64) bool {
	h.g.Pin()
	defer h.g.Unpin()
	t := h.t
	var info uint64
	for {
		res := h.search(key)
		if t.nodes.Deref(res.l).key != key {
			if info != 0 {
				t.infos.Free(info)
			}
			return false
		}
		if res.gp == 0 {
			// l's parent is the root's child structure; with sentinels a
			// real key always has a grandparent, so this cannot happen.
			return false
		}
		if stateOf(res.gpupdate) != stateClean {
			h.help(res.gpupdate)
			continue
		}
		if stateOf(res.pupdate) == stateMark {
			continue // p's deletion finished between the two reads
		}
		if stateOf(res.pupdate) != stateClean {
			h.help(res.pupdate)
			continue
		}
		if info == 0 {
			info, _ = t.infos.Alloc()
		}
		op := t.infos.Deref(info)
		op.kind = kindDelete
		op.gp, op.p, op.l = res.gp, res.p, res.l
		op.pupdate = res.pupdate
		op.newInternal = 0

		// Shield our descriptor before publishing it (see Insert).
		h.g.Track(slotOp, info)
		if h.flagCAS(res.gp, res.gpupdate, info, stateDFlag) {
			marked := packUpdate(info, stateMark)
			for {
				done, aborted := h.helpDelete(info)
				if aborted {
					// Neutralized mid-help: recover, then re-validate that
					// our descriptor is still installed on gp before
					// dereferencing it again. gp and p have been shielded
					// continuously since the search, so their update words
					// are safe to read; p's permanent MARK decides the
					// outcome if the operation already finished.
					h.restart()
					if !h.g.Track(slotOp, info) {
						continue
					}
					gpw := t.nodes.Deref(res.gp).update.Load()
					if infoOf(gpw) == info && stateOf(gpw) == stateDFlag {
						continue // still ours: keep helping
					}
					return t.nodes.Deref(res.p).update.Load() == marked
				}
				if done {
					return true
				}
				break // backtracked: retry from a fresh search
			}
			info = 0 // descriptor is published on gp; it is not ours to free
		} else {
			h.helpUpdateOf(res.gp)
		}
	}
}
