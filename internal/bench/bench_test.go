package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/scheme"
)

func TestParseWorkload(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Workload
	}{
		{"write-only", WriteOnly}, {"write", WriteOnly},
		{"read-write", ReadWrite}, {"rw", ReadWrite},
		{"read-most", ReadMost}, {"read", ReadMost},
	} {
		got, err := ParseWorkload(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseWorkload(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseWorkload("bogus"); err == nil {
		t.Error("expected error for bogus workload")
	}
}

func TestWorkloadString(t *testing.T) {
	if WriteOnly.String() != "write-only" || ReadWrite.String() != "read-write" || ReadMost.String() != "read-most" {
		t.Fatal("workload names changed")
	}
}

// TestApplicabilityMatrix pins the Table 2 facts the benchmark enforces.
func TestApplicabilityMatrix(t *testing.T) {
	if Applicable("hhslist", "hp") {
		t.Error("HP must not apply to Harris's list (§2.3)")
	}
	if Applicable("nmtree", "hp") {
		t.Error("HP must not apply to the NM tree (Table 2)")
	}
	if Applicable("efrbtree", "rc") {
		t.Error("RC must not apply to EFRB (footnote 12)")
	}
	if !Applicable("hmlist", "hp") || !Applicable("efrbtree", "hp") || !Applicable("skiplist", "hp") {
		t.Error("HP-compatible structures misclassified")
	}
	for _, ds := range DataStructures() {
		if !Applicable(ds, "ebr") || !Applicable(ds, "hp++") {
			t.Errorf("EBR/HP++ must apply everywhere; failed for %s", ds)
		}
	}
}

// TestEveryTargetConstructs builds every applicable (ds, scheme) pair.
func TestEveryTargetConstructs(t *testing.T) {
	built := 0
	for _, ds := range DataStructures() {
		for _, name := range scheme.Names(nil) {
			target, err := NewTarget(ds, name, arena.ModeReuse)
			if Applicable(ds, name) {
				if err != nil {
					t.Errorf("NewTarget(%s,%s): %v", ds, name, err)
					continue
				}
				h := target.NewHandle()
				h.Insert(1, 2)
				if v, ok := h.Get(1); !ok || v != 2 {
					t.Errorf("%s/%s: basic op failed", ds, name)
				}
				target.Finish()
				built++
			} else if err == nil {
				t.Errorf("NewTarget(%s,%s) should be rejected", ds, name)
			}
		}
	}
	if built < 35 {
		t.Fatalf("only %d targets built", built)
	}
}

func TestRegisteredListsEverything(t *testing.T) {
	reg := Registered()
	if len(reg) != len(DataStructures()) {
		t.Fatalf("registered %v, want all of %v", reg, DataStructures())
	}
}

// TestRunProducesSaneResult runs a tiny benchmark cell end to end.
func TestRunProducesSaneResult(t *testing.T) {
	target, err := NewTarget("hhslist", "ebr", arena.ModeReuse)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(target, Config{
		Threads:  2,
		Duration: 100 * time.Millisecond,
		Workload: ReadWrite,
		KeyRange: 256,
	})
	if res.Ops == 0 {
		t.Fatal("no operations executed")
	}
	if res.MopsPerSec <= 0 {
		t.Fatalf("throughput = %f", res.MopsPerSec)
	}
	if res.PeakUnreclaimed <= 0 {
		t.Fatal("no garbage observed in a write workload")
	}
	if res.Target != "hhslist/ebr" {
		t.Fatalf("target label %q", res.Target)
	}
}

// TestRunLongReadsCountsOnlyReads verifies the Figure 10 runner reports
// reader throughput.
func TestRunLongReadsCountsOnlyReads(t *testing.T) {
	target, err := NewTarget("hhslist", "hp++", arena.ModeReuse)
	if err != nil {
		t.Fatal(err)
	}
	res := RunLongReads(target, Config{
		Threads:  2,
		Duration: 100 * time.Millisecond,
		KeyRange: 512,
	})
	if res.Ops == 0 {
		t.Fatal("no reads executed")
	}
}

// TestRunWithStallShowsEBRGrowth is the §4.4 contrast at harness level.
func TestRunWithStallShowsEBRGrowth(t *testing.T) {
	stalled := func(scheme string) int64 {
		target, err := NewTarget("hhslist", scheme, arena.ModeReuse)
		if err != nil {
			t.Fatal(err)
		}
		res := RunWithStall(target, Config{
			Threads:  2,
			Duration: 600 * time.Millisecond,
			Workload: WriteOnly,
			KeyRange: 512,
		})
		return res.PeakUnreclaimed
	}
	// The margin is conservative (EBR grows linearly, HP++ is constant)
	// so the test stays stable under race-detector slowdown.
	ebrPeak := stalled("ebr")
	hppPeak := stalled("hp++")
	if ebrPeak < 2*hppPeak {
		t.Fatalf("expected EBR garbage to dwarf HP++'s under a stall: ebr=%d hp++=%d", ebrPeak, hppPeak)
	}
}

func TestMatrixWrite(t *testing.T) {
	m := Matrix{
		Title:    "test",
		RowLabel: "threads",
		Rows:     []string{"1", "2"},
		Cols:     []string{"a", "b"},
		Cells:    [][]float64{{1.5, math.NaN()}, {2000, 3}},
	}
	var buf bytes.Buffer
	m.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "n/a") {
		t.Error("NaN not rendered as n/a")
	}
	if !strings.Contains(out, "2000") || !strings.Contains(out, "1.500") {
		t.Errorf("formatting wrong:\n%s", out)
	}
}
