package bench

import (
	"encoding/json"
	"io"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/hazards"
	"github.com/gosmr/gosmr/internal/smr"
)

// Pinned shape of the reclaim-scan microbench: the number of announced
// hazard slots and the retired-set size a single Reclaim pass scans. The
// retired set is scanned once per pass, so ns/op below is nanoseconds per
// full pass over Retired refs.
const (
	ScanHazards = 64
	ScanRetired = 4096
)

// ScanResult reports the pinned reclaim-scan microbench: the pre-overhaul
// map-based hazard snapshot versus the filtered sorted-snapshot scan the
// Reclaim hot path now uses.
type ScanResult struct {
	Hazards         int     `json:"hazards"`
	Retired         int     `json:"retired"`
	MapNsPerOp      float64 `json:"map_ns_per_op"`
	MapOpsPerSec    float64 `json:"map_ops_per_sec"`
	SortedNsPerOp   float64 `json:"sorted_ns_per_op"`
	SortedOpsPerSec float64 `json:"sorted_ops_per_sec"`
	// Speedup is MapNsPerOp / SortedNsPerOp.
	Speedup float64 `json:"speedup"`
}

// CellResult is one fig-8 throughput cell rerun for the reclaim report.
type CellResult struct {
	DS         string  `json:"ds"`
	Scheme     string  `json:"scheme"`
	Threads    int     `json:"threads"`
	KeyRange   uint64  `json:"key_range"`
	Workload   string  `json:"workload"`
	MopsPerSec float64 `json:"mops_per_sec"`
	NsPerOp    float64 `json:"ns_per_op"`
	// P50Us/P95Us/P99Us are request latency percentiles in microseconds.
	// Only service-layer cells (kvload against gosmrd) fill them; the
	// in-process microbench cells have no per-op latency distribution.
	P50Us float64 `json:"p50_us,omitempty"`
	P95Us float64 `json:"p95_us,omitempty"`
	P99Us float64 `json:"p99_us,omitempty"`
	// P50GetUs/P99GetUs are the GET-only latency percentiles in
	// microseconds: the numbers the read-fast-path gate compares with the
	// fast path on versus off, and the resizable-map scaling gate compares
	// across key-space sizes (GETs isolate read-path traversal length from
	// insert/delete retry cost).
	P50GetUs float64 `json:"p50_get_us,omitempty"`
	P99GetUs float64 `json:"p99_get_us,omitempty"`
	// Engine is the shard map engine behind a service-layer cell
	// (somap/hashmap); empty for in-process microbench cells.
	Engine string `json:"engine,omitempty"`
	// FastpathGets is the server's fastpath_gets counter after the run:
	// every GET it executed (the name predates run-to-completion, when
	// only some GETs bypassed the shard workers).
	FastpathGets int64 `json:"fastpath_gets,omitempty"`
	// PreloadedKeys is how many keys were bulk-loaded before the
	// measured phase (0 = none).
	PreloadedKeys uint64 `json:"preloaded_keys,omitempty"`
	// Idle-fleet cells (kvload -idle-conns against gosmrd): the parked
	// connection count, the post-GC server memory delta per parked conn,
	// the server goroutine count with the fleet live, the fast-path
	// handle census, and which connection layer served ("" = goroutine
	// mode, else the netpoll backend). cmd/benchcompare -conns gates on
	// these.
	IdleConns    int     `json:"idle_conns,omitempty"`
	BytesPerConn float64 `json:"bytes_per_conn,omitempty"`
	Goroutines   int     `json:"goroutines,omitempty"`
	LiveHandles  int     `json:"live_handles,omitempty"`
	NetpollKind  string  `json:"netpoll_kind,omitempty"`
	// Stats is the domain's post-run smr.Stats snapshot (scan counts,
	// freed-per-scan, occupancy) plus the arena live/quarantine totals.
	Stats smr.Stats `json:"smr_stats"`
}

// ReclaimReport is the schema of BENCH_reclaim.json.
type ReclaimReport struct {
	GeneratedBy string       `json:"generated_by"`
	Scan        ScanResult   `json:"scan_microbench"`
	Cells       []CellResult `json:"cells"`
}

// scanFixture builds a registry with h announced slots and n retired refs,
// a quarter of which are protected — the shape of one Reclaim pass.
func scanFixture(h, n int) (*hazards.Registry, []uint64) {
	reg := &hazards.Registry{}
	vals := make([]uint64, 0, h)
	r := rng{s: 0x5EED}
	for i := 0; i < h; i++ {
		v := r.next() | 1
		reg.Acquire().Set(v)
		vals = append(vals, v)
	}
	retired := make([]uint64, n)
	for i := range retired {
		if i%4 == 0 {
			retired[i] = vals[i%h]
		} else {
			retired[i] = r.next() | 1
		}
	}
	return reg, retired
}

// timeScan runs pass repeatedly until it has accumulated roughly minDur of
// wall time and returns the per-pass average in nanoseconds.
func timeScan(pass func(), minDur time.Duration) float64 {
	// Warm up and calibrate the batch size.
	pass()
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			pass()
		}
		if d := time.Since(start); d >= minDur {
			return float64(d.Nanoseconds()) / float64(batch)
		} else if d > 0 {
			next := int(float64(batch) * float64(minDur) / float64(d) * 1.2)
			if next <= batch {
				next = batch * 2
			}
			batch = next
		} else {
			batch *= 2
		}
	}
}

// RunScanMicrobench measures the pinned reclaim-scan microbench.
func RunScanMicrobench(minDur time.Duration) ScanResult {
	reg, retired := scanFixture(ScanHazards, ScanRetired)

	kept := 0
	scratch := make(map[uint64]struct{}, ScanHazards)
	mapNs := timeScan(func() {
		clear(scratch)
		reg.BenchSnapshot(scratch)
		for _, ref := range retired {
			if _, p := scratch[ref]; p {
				kept++
			}
		}
	}, minDur)

	var scan hazards.ScanSet
	sortedNs := timeScan(func() {
		scan.Load(reg)
		for _, ref := range retired {
			if scan.Contains(ref) {
				kept++
			}
		}
	}, minDur)
	scanSink = kept

	return ScanResult{
		Hazards:         ScanHazards,
		Retired:         ScanRetired,
		MapNsPerOp:      mapNs,
		MapOpsPerSec:    1e9 / mapNs,
		SortedNsPerOp:   sortedNs,
		SortedOpsPerSec: 1e9 / sortedNs,
		Speedup:         mapNs / sortedNs,
	}
}

var scanSink int

// ReclaimJSON writes BENCH_reclaim.json-shaped output to w: the pinned
// scan microbench plus one fig-8 read-write cell per scheme (the HP cell
// runs on hmlist since the optimistic structures reject plain HP).
func ReclaimJSON(w io.Writer, schemes []string, dur time.Duration) error {
	report := ReclaimReport{
		GeneratedBy: "smrbench -reclaimjson",
		Scan:        RunScanMicrobench(200 * time.Millisecond),
	}
	for _, scheme := range schemes {
		ds := "hhslist"
		if scheme == "hp" {
			ds = "hmlist"
		}
		t, err := NewTarget(ds, scheme, arena.ModeReuse)
		if err != nil {
			return err
		}
		res := Run(t, Config{
			Threads:  4,
			Duration: dur,
			Workload: ReadWrite,
			KeyRange: 10000,
		})
		report.Cells = append(report.Cells, CellResult{
			DS:         ds,
			Scheme:     scheme,
			Threads:    4,
			KeyRange:   10000,
			Workload:   ReadWrite.String(),
			MopsPerSec: res.MopsPerSec,
			NsPerOp:    1e3 / res.MopsPerSec,
			Stats:      res.Stats,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
