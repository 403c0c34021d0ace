package main

import (
	"testing"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

// A connection pipelines PUT, DEL, GET on one key. The server runs the
// DEL before the PUT (two workers of one shard racing). The sequential
// model must flag the DEL's and the GET's responses.
func TestModelFlagsReorderedResponses(t *testing.T) {
	sp := spec{keys: 16, preload: 0, getPct: 34, putPct: 33}
	m := newModel(sp, newKeyspace(7), 0)
	const j = 3
	if m.present[j] {
		t.Fatal("key preloaded; the test needs it absent")
	}
	putVal, ePut := m.apply(opPut, j)
	_, eDel := m.apply(opDel, j)
	_, eGet := m.apply(opGet, j)

	// Executed as DEL, PUT, GET.
	got := []struct {
		op     uint8
		e      expectation
		status uint8
		val    uint64
		want   verdict
	}{
		{opDel, eDel, kvsvc.StatusNotFound, 0, vWrong},
		{opPut, ePut, kvsvc.StatusOK, 0, vMatch},
		{opGet, eGet, kvsvc.StatusOK, putVal, vWrong},
	}
	var tl tally
	for _, g := range got {
		v := m.judge(g.op, j, g.e, g.status, g.val)
		if v != g.want {
			t.Errorf("%s: verdict %d, want %d", opName(g.op), v, g.want)
		}
		tl.add(v, g.status)
	}
	if tl.wrong != 2 || tl.checked != 3 {
		t.Errorf("tally wrong=%d checked=%d, want 2 of 3", tl.wrong, tl.checked)
	}

	// The same stream in send order is all matches.
	m2 := newModel(sp, newKeyspace(7), 0)
	pv, e1 := m2.apply(opPut, j)
	_, e2 := m2.apply(opDel, j)
	_, e3 := m2.apply(opGet, j)
	for i, v := range []verdict{
		m2.judge(opPut, j, e1, kvsvc.StatusOK, 0),
		m2.judge(opDel, j, e2, kvsvc.StatusOK, 0),
		m2.judge(opGet, j, e3, kvsvc.StatusNotFound, 0),
	} {
		if v != vMatch {
			t.Errorf("in-order response %d: verdict %d, want match", i, v)
		}
	}
	_ = pv
}

func TestModelIntegrity(t *testing.T) {
	sp := spec{keys: 16, preload: 16, getPct: 100}
	m := newModel(sp, newKeyspace(1), 1)
	_, e := m.apply(opGet, 2)
	if v := m.judge(opGet, 2, e, kvsvc.StatusOK, valueOf(m.key(2), 0)); v != vMatch {
		t.Errorf("preloaded value: verdict %d, want match", v)
	}
	if v := m.judge(opGet, 2, e, kvsvc.StatusOK, valueOf(m.key(5), 0)); v != vCorrupt {
		t.Errorf("another key's value: verdict %d, want corrupt", v)
	}
	if v := m.judge(opGet, 2, e, kvsvc.StatusOK, valueOf(m.key(2), 9)); v != vCorrupt {
		t.Errorf("never-written version: verdict %d, want corrupt", v)
	}
	// A shed mutation makes the key unknowable: later answers are
	// integrity-checked only.
	_, ep := m.apply(opPut, 4)
	if v := m.judge(opPut, 4, ep, kvsvc.StatusOverloaded, 0); v != vFailed {
		t.Errorf("shed PUT: verdict %d, want failed", v)
	}
	_, eg := m.apply(opGet, 4)
	if v := m.judge(opGet, 4, eg, kvsvc.StatusOK, valueOf(m.key(4), 0)); v != vUnchecked {
		t.Errorf("GET after shed PUT: verdict %d, want unchecked", v)
	}
}
