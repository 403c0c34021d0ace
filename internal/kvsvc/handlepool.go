package kvsvc

import "sync"

// handlePool caches per-shard store handles for the goroutines that
// execute requests. Handles are single-owner objects (they carry a
// hazard thread or an epoch guard), so connections cannot share one
// concurrently — but a connection that closes can hand its handles to the
// next connection instead of paying handle construction (slot acquisition,
// frontier setup) and release on every accept. The mutex handoff gives the
// adopting goroutine a happens-before edge over the releasing
// connection's last use, which is what makes the transfer safe.
//
// The pool bounds idle handles per shard; overflow is released to the
// store outright (ReleaseShardHandle returns the hazard slots / epoch
// record to the domain). Either way the registry footprint tracks peak
// concurrency, not connections ever accepted.
type handlePool struct {
	store *Store
	max   int // idle handles kept per shard; <= 0 disables caching

	mu   sync.Mutex
	idle [][]Handle
}

func newHandlePool(store *Store, maxIdle int) *handlePool {
	return &handlePool{
		store: store,
		max:   maxIdle,
		idle:  make([][]Handle, store.NumShards()),
	}
}

// get returns a handle bound to shard i, reusing an idle one when
// available.
func (p *handlePool) get(i int) Handle {
	p.mu.Lock()
	if n := len(p.idle[i]); n > 0 {
		h := p.idle[i][n-1]
		p.idle[i][n-1] = nil
		p.idle[i] = p.idle[i][:n-1]
		p.mu.Unlock()
		return h
	}
	p.mu.Unlock()
	return p.store.NewShardHandle(i)
}

// put returns a shard-i handle to the cache, releasing it to the store
// when the shard's idle set is full. The caller must not use h afterwards.
func (p *handlePool) put(i int, h Handle) {
	p.mu.Lock()
	if len(p.idle[i]) < p.max {
		p.idle[i] = append(p.idle[i], h)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.store.ReleaseShardHandle(i, h)
}

// drain releases every idle handle back to the store. Call after the last
// connection is gone and before Store.Drain so the store's final
// reclamation pass sees no live pool handles.
func (p *handlePool) drain() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make([][]Handle, len(idle))
	p.mu.Unlock()
	for i, hs := range idle {
		for _, h := range hs {
			p.store.ReleaseShardHandle(i, h)
		}
	}
}

// connHandles is one lazily-acquired per-shard handle set, owned by one
// connection goroutine or one netpoll poller: it borrows a shard's
// handle from the pool on the first request routed there and returns
// everything at release.
type connHandles struct {
	pool *handlePool
	hs   []Handle
}

func newConnHandles(pool *handlePool) *connHandles {
	return &connHandles{pool: pool, hs: make([]Handle, pool.store.NumShards())}
}

func (r *connHandles) handle(i int) Handle {
	if r.hs[i] == nil {
		r.hs[i] = r.pool.get(i)
	}
	return r.hs[i]
}

func (r *connHandles) release() {
	for i, h := range r.hs {
		if h != nil {
			r.pool.put(i, h)
			r.hs[i] = nil
		}
	}
}
