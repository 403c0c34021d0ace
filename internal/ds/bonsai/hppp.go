package bonsai

import (
	"sync/atomic"

	"github.com/gosmr/gosmr/internal/core"
	"github.com/gosmr/gosmr/internal/smr"
	"github.com/gosmr/gosmr/internal/tagptr"
)

// TreeHPP is the Bonsai tree under HP++. Protections are validated by
// under-approximation — only an *invalidated* source node fails them — so
// unrelated committed writes never force a restart. Unlike §5's remark
// that "Bonsai does not require frontier protection", the root CAS does
// protect a frontier (see frontier): an old node reused by the new
// version can be retired by the next writer while a reader still reaches
// it through a replaced, not yet invalidated node. Without it the
// detect-mode sweep caught use-after-free under concurrent writers.
type TreeHPP struct {
	pool Pool
	root atomic.Uint64
}

// NewTreeHPP creates an empty tree over pool.
func NewTreeHPP(pool Pool) *TreeHPP { return &TreeHPP{pool: pool} }

// NewHandleHPP returns a per-worker handle.
func (t *TreeHPP) NewHandleHPP(dom *core.Domain) *HandleHPP {
	h := &HandleHPP{t: t, h: dom.NewThread(maxDepth + 2)}
	h.b = builder{pool: t.pool, prot: h}
	return h
}

// HandleHPP is a per-worker handle; not safe for concurrent use.
type HandleHPP struct {
	t     *TreeHPP
	h     *core.Thread
	b     builder
	rootW tagptr.Word // root word the current write attempt started from
	front []uint64    // frontier scratch for commit
}

// Thread exposes the underlying HP++ thread.
func (h *HandleHPP) Thread() *core.Thread { return h.h }

// enter implements protector via TryProtect: the source is the parent
// node (whose links are immutable), so the protection loop never spins;
// it fails only if the parent was invalidated. parent==0 protects from
// the mutable root pointer; a concurrent root change there retries with
// the fresh root.
func (h *HandleHPP) enter(depth int, ref, parent uint64, fromLeft bool) (view, bool) {
	if depth >= maxDepth {
		return view{}, false // out of slots: abort the attempt
	}
	slot := depth
	switch {
	case parent == 0:
		r := ref
		if !h.h.TryProtect(slot, &r, nil, &h.t.root) || r != ref {
			return view{}, false // root moved: restart the attempt
		}
	case h.b.isNew(parent):
		// parent is this attempt's private copy (a rotation input). It is
		// never invalidated, so it cannot vouch for ref, and ref's
		// earlier protection may already have been overwritten. ref is a
		// node of the snapshot rooted at rootW; while the root still
		// holds that word no writer has retired any node of it.
		h.h.Protect(slot, ref)
		if h.t.root.Load() != h.rootW {
			return view{}, false
		}
	default:
		pn := h.t.pool.Deref(parent)
		link := &pn.right
		if fromLeft {
			link = &pn.left
		}
		r := ref
		if !h.h.TryProtect(slot, &r, &pn.left, link) || r != ref {
			return view{}, false // parent invalidated (or stale view)
		}
	}
	nd := h.t.pool.Deref(ref)
	return view{
		key: nd.key, val: nd.val,
		left:  tagptr.RefOf(nd.left.Load()),
		right: tagptr.RefOf(nd.right.Load()),
		size:  nd.size,
	}, true
}

// Get returns the value stored under key. Unlike HP, a committed write
// only disturbs this traversal if it invalidated a node on our path.
func (h *HandleHPP) Get(key uint64) (uint64, bool) {
	defer h.h.ClearAll()
	a, b := slotGet, slotGet2 // ping-pong slots
retry:
	cur := tagptr.RefOf(h.t.root.Load())
	if !h.h.TryProtect(a, &cur, nil, &h.t.root) {
		goto retry
	}
	for cur != 0 {
		nd := h.t.pool.Deref(cur)
		switch {
		case key == nd.key:
			return nd.val, true
		case key < nd.key:
			next := tagptr.RefOf(nd.left.Load())
			if next == 0 {
				return 0, false
			}
			if !h.h.TryProtect(b, &next, &nd.left, &nd.left) {
				goto retry
			}
			cur = next
		default:
			next := tagptr.RefOf(nd.right.Load())
			if next == 0 {
				return 0, false
			}
			if !h.h.TryProtect(b, &next, &nd.left, &nd.right) {
				goto retry
			}
			cur = next
		}
		a, b = b, a
	}
	return 0, false
}

// frontier lists the old nodes the new version links to. A reader still
// inside the replaced path reaches them through replaced nodes, which
// validate its protections until they are invalidated — and HP++ defers
// invalidation — while another writer may retire them meanwhile. So
// TryUnlink must protect them across the unlink.
func (h *HandleHPP) frontier() []uint64 {
	h.front = h.front[:0]
	for _, n := range h.b.newNodes {
		nd := h.t.pool.Deref(n)
		for _, c := range [2]uint64{tagptr.RefOf(nd.left.Load()), tagptr.RefOf(nd.right.Load())} {
			if c != 0 && !h.b.isNew(c) {
				h.front = append(h.front, c)
			}
		}
	}
	return h.front
}

func (h *HandleHPP) commit(oldW tagptr.Word, newRoot uint64) bool {
	root := &h.t.root
	pool := h.t.pool
	ok := h.h.TryUnlink(h.frontier(), func() ([]smr.Retired, bool) {
		if !root.CompareAndSwap(oldW, tagptr.Pack(newRoot, 0)) {
			return nil, false
		}
		var rs []smr.Retired
		for _, r := range h.b.splitGarbage() {
			rs = append(rs, smr.Retired{Ref: r, D: pool})
		}
		return rs, true
	}, pool)
	if ok {
		// Invalidate now instead of in HP++'s usual batch: the frontier
		// (a whole path's worth of siblings) stays protected only until
		// then, so the registry stays small, and the window in which a
		// replaced node still validates readers closes at once.
		h.h.DoInvalidation()
	}
	return ok
}

// Insert adds key→val; it fails if key is already present.
func (h *HandleHPP) Insert(key, val uint64) bool {
	defer h.h.ClearAll()
	for {
		h.b.reset()
		oldW := h.t.root.Load()
		h.rootW = oldW
		oldRoot := tagptr.RefOf(oldW)
		newRoot, _, existed := h.b.insertRec(0, oldRoot, 0, true, key, val)
		if !h.b.ok {
			h.b.abort()
			continue
		}
		if existed {
			h.b.abort()
			return false
		}
		if h.commit(oldW, newRoot) {
			return true
		}
		h.b.abort()
	}
}

// Delete removes key, reporting whether it was present.
func (h *HandleHPP) Delete(key uint64) bool {
	defer h.h.ClearAll()
	for {
		h.b.reset()
		oldW := h.t.root.Load()
		h.rootW = oldW
		oldRoot := tagptr.RefOf(oldW)
		newRoot, _, found := h.b.deleteRec(0, oldRoot, 0, true, key)
		if !h.b.ok {
			h.b.abort()
			continue
		}
		if !found {
			h.b.abort()
			return false
		}
		if h.commit(oldW, newRoot) {
			return true
		}
		h.b.abort()
	}
}
