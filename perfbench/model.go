package main

import (
	"sync/atomic"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

const (
	opGet  = kvsvc.OpGet
	opPut  = kvsvc.OpPut
	opDel  = kvsvc.OpDel
	opPing = kvsvc.OpPing
)

// model is one partition's sequential model: the state every key it
// owns must be in if the partition's requests take effect in the order
// they were sent. The sending side owns present/ver and computes each
// request's single expected response at send time; the receiving side
// reads only issued/unknown, which are atomic.
type model struct {
	ks      keyspace
	part    int
	present []bool
	ver     []uint32
	issued  []atomic.Uint32 // highest version ever sent for the key
	unknown []atomic.Bool   // a mutation was refused or lost: state unknowable
}

func newModel(sp spec, ks keyspace, part int) *model {
	n := sp.keys / parts
	m := &model{
		ks:      ks,
		part:    part,
		present: make([]bool, n),
		ver:     make([]uint32, n),
		issued:  make([]atomic.Uint32, n),
		unknown: make([]atomic.Bool, n),
	}
	for j := range m.present {
		m.present[j] = ks.preloaded(sp, m.index(j))
	}
	return m
}

// index maps a partition-local key index to the global one.
func (m *model) index(j int) int { return j*parts + m.part }

func (m *model) key(j int) uint64 { return m.ks.key(m.index(j)) }

// expectation is what the model predicts for one request.
type expectation struct {
	status uint8
	val    uint64
	check  bool // false once the key's state is unknown
}

// apply computes op's expected response, advances the model past it,
// and returns the request value to send.
func (m *model) apply(op uint8, j int) (reqVal uint64, e expectation) {
	e.check = !m.unknown[j].Load()
	key := m.key(j)
	switch op {
	case opGet:
		if m.present[j] {
			e.status, e.val = kvsvc.StatusOK, valueOf(key, m.ver[j])
		} else {
			e.status = kvsvc.StatusNotFound
		}
	case opPut:
		v := m.issued[j].Load() + 1
		m.issued[j].Store(v)
		m.present[j], m.ver[j] = true, v
		e.status, reqVal = kvsvc.StatusOK, valueOf(key, v)
	case opDel:
		if m.present[j] {
			e.status = kvsvc.StatusOK
		} else {
			e.status = kvsvc.StatusNotFound
		}
		m.present[j] = false
	}
	return reqVal, e
}

// verdict classifies one response.
type verdict uint8

const (
	vMatch     verdict = iota // the single right answer
	vWrong                    // contradicts the sequential model
	vUnchecked                // key state unknown; only integrity checked
	vFailed                   // StatusErr or StatusOverloaded
	vCorrupt                  // integrity failure: foreign or never-written value
)

// judge checks resp against the request's expectation. A refused
// mutation makes the key's state unknowable from then on, so later
// responses for it are integrity-checked only.
func (m *model) judge(op uint8, j int, e expectation, status uint8, val uint64) verdict {
	switch status {
	case kvsvc.StatusOverloaded, kvsvc.StatusErr:
		if op != opGet {
			m.unknown[j].Store(true)
		}
		return vFailed
	}
	if op == opGet && status == kvsvc.StatusOK {
		tag, ver := splitValue(val)
		if tag != keyTag(m.key(j)) || ver > m.issued[j].Load() {
			return vCorrupt
		}
	}
	if !e.check || m.unknown[j].Load() {
		return vUnchecked
	}
	if status != e.status || (op == opGet && status == kvsvc.StatusOK && val != e.val) {
		return vWrong
	}
	return vMatch
}

// tally accumulates verdicts.
type tally struct {
	attempted, completed int64
	shed, errs, lost     int64
	checked, wrong       int64
	corrupt, unchecked   int64
}

func (t *tally) add(v verdict, status uint8) {
	t.completed++
	switch v {
	case vMatch:
		t.checked++
	case vWrong:
		t.checked++
		t.wrong++
	case vUnchecked:
		t.unchecked++
	case vCorrupt:
		t.corrupt++
	case vFailed:
		if status == kvsvc.StatusOverloaded {
			t.shed++
		} else {
			t.errs++
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.shed += o.shed
	t.errs += o.errs
	t.lost += o.lost
	t.checked += o.checked
	t.wrong += o.wrong
	t.corrupt += o.corrupt
	t.unchecked += o.unchecked
}

func (t *tally) failed() int64 { return t.shed + t.errs + t.lost }
