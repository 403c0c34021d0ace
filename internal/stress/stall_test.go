package stress

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestStallCellScot is a quick end-to-end of the new hp-scot stall row:
// the parked writer bounds the backlog and the cell drains to zero.
func TestStallCellScot(t *testing.T) {
	opts := StallOptions{Workers: 2, Ops: 2000, Keys: 32}
	cell, err := RunStallCell("hp-scot", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cell.ParkedStall {
		t.Fatal("participant did not park")
	}
	if cell.UAF != 0 || cell.DoubleFree != 0 {
		t.Fatalf("memory violations: uaf=%d doublefree=%d", cell.UAF, cell.DoubleFree)
	}
	if cell.FinalUnreclaimed != 0 {
		t.Fatalf("did not drain: final unreclaimed %d", cell.FinalUnreclaimed)
	}
	if cell.PeakUnreclaimed <= 0 || cell.PeakUnreclaimed > 4096 {
		t.Fatalf("peak unreclaimed %d outside the robust bound", cell.PeakUnreclaimed)
	}
}

// TestStallJSONContainsRegistrySchemes runs a minimal StallJSON sweep and
// asserts every default scheme produced both a stall cell and a
// throughput row.
func TestStallJSONContainsRegistrySchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact sweep in long mode only")
	}
	opts := StallOptions{Workers: 2, Ops: 400, Keys: 16}
	var buf bytes.Buffer
	if err := StallJSON(&buf, opts, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var rep StallReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	want := DefaultStallSchemes("hmlist")
	cells := map[string]bool{}
	for _, c := range rep.Cells {
		cells[c.Scheme] = true
	}
	thr := map[string]bool{}
	for _, c := range rep.Throughput {
		thr[c.Scheme] = true
	}
	for _, s := range want {
		if !cells[s] {
			t.Errorf("scheme %q missing from stall cells", s)
		}
		if !thr[s] {
			t.Errorf("scheme %q missing from throughput companion", s)
		}
	}
}
