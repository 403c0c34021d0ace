// Package stress is the full-matrix fault-injection safety harness: it
// sweeps every registered (data structure, scheme) cell — including the
// queue and stack, and the deliberately broken unsafefree control — in
// arena detect mode, records complete operation histories, and hands
// them to the linchk linearizability checker.
//
// Each cell runs shared-key workloads under three adversaries:
//
//   - a stalled reader: a goroutine parked mid-traversal (inside a
//     Deref, holding whatever guard/protection its scheme gives it) for
//     the whole run;
//   - delayed retirers: destructive workers yield repeatedly after each
//     remove, stretching the unlink→free→reuse window;
//   - reclamation storms: a dedicated goroutine hammering epoch
//     advancement, which for PEBR ejects (neutralizes) lagging readers
//     over and over.
//
// Verdicts are attributable: "uaf"/"double-free" mean the arena caught a
// memory-safety violation (the reclamation scheme is broken), while
// "non-linearizable" means every access was memory-safe but the observed
// results admit no legal sequential order (the data structure is
// broken). A correct cell reports "ok" on both axes.
package stress

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/linchk"
	"github.com/gosmr/gosmr/internal/scheme"
	"github.com/gosmr/gosmr/internal/smr"
)

// Cell is one (data structure, scheme) pair of the safety matrix.
type Cell struct {
	DS     string `json:"ds"`
	Scheme string `json:"scheme"`
	// Kind selects the op surface and spec: "map", "queue" or "stack".
	Kind string `json:"kind"`
}

func (c Cell) String() string { return c.DS + "/" + c.Scheme }

// Matrix enumerates the full safety matrix: every map-style structure
// under every applicable scheme, then the MS queue and the Treiber
// stack — and, when includeUnsafe is set, each structure's must-fail
// control cells (the unsafefree control wherever a CS variant exists,
// the SCOT control where the SCOT variant can elide its handshake).
func Matrix(includeUnsafe bool) []Cell {
	var cells []Cell
	add := func(ds, kind string) {
		for _, s := range scheme.All() {
			if (!s.Control || includeUnsafe) && bench.Applicable(ds, s.Name) {
				cells = append(cells, Cell{ds, s.Name, kind})
			}
		}
	}
	for _, ds := range bench.DataStructures() {
		add(ds, "map")
	}
	add("msqueue", "queue")
	add("tstack", "stack")
	return cells
}

// Faults selects the adversaries injected into a cell run.
type Faults struct {
	// StallReader parks one reader goroutine mid-traversal (inside a
	// deref, guard held) for the whole run.
	StallReader bool
	// ParkedWorker upgrades the stalled participant from a reader to a
	// writer: the parked goroutine is caught mid-*mutation* (map insert,
	// queue enqueue, stack push), pinned with whatever protection its
	// scheme grants a destructive op. This is the §4.4 robustness
	// adversary in its strongest form — the parked worker may hold
	// hazard announcements or an epoch pin acquired on the write path.
	// Implies the stall machinery even when StallReader is false.
	ParkedWorker bool
	// DelayRetire makes destructive workers yield this many times after
	// every successful remove.
	DelayRetire int
	// Storm runs a goroutine hammering the scheme's collection pulse:
	// epoch advancement and PEBR ejection storms.
	Storm bool
	// YieldEvery inserts a scheduler yield into every Nth deref, between
	// slot resolution and liveness validation — the window in which a
	// buggy scheme frees a node out from under a reader. 0 disables.
	YieldEvery int
	// ResizeStorm shrinks resizable structures to a tiny initial
	// directory with load factor 1 (somap: 2 buckets, double on every
	// insert beyond the count), so directory doublings and dummy-node
	// splices happen continuously while the other faults are active.
	// Ignored by fixed-size structures.
	ResizeStorm bool
}

// DefaultFaults enables every adversary at moderate intensity.
func DefaultFaults() Faults {
	return Faults{StallReader: true, DelayRetire: 4, Storm: true, YieldEvery: 64, ResizeStorm: true}
}

// Options parameterizes one cell run.
type Options struct {
	Workers int
	// Ops is the op count per worker.
	Ops  int
	Keys uint64
	Seed uint64
	// MaxNodes is the linearizability search budget (0 = default).
	MaxNodes int64
	Faults   Faults
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Ops <= 0 {
		o.Ops = 1200
	}
	if o.Keys == 0 {
		o.Keys = 8
	}
	if o.Seed == 0 {
		o.Seed = 0x5EEDBA5E
	}
	return o
}

// CellResult is the attributable outcome of one cell run.
type CellResult struct {
	DS         string `json:"ds"`
	Scheme     string `json:"scheme"`
	Kind       string `json:"kind"`
	Ops        int    `json:"ops"`
	UAF        int64  `json:"uaf"`
	DoubleFree int64  `json:"double_free"`
	// Outcome: "ok", "uaf", "double-free", "non-linearizable", or
	// "exhausted" (checker budget ran out; inconclusive).
	Outcome     string `json:"outcome"`
	Explored    int64  `json:"states_explored"`
	Unreclaimed int64  `json:"final_unreclaimed"`
	ParkedStall bool   `json:"parked_stall"`
	ElapsedMS   int64  `json:"elapsed_ms"`
	Report      string `json:"report,omitempty"`
	// Stats is the domain's smr.Stats snapshot taken after Finish, with
	// the arena fields filled from the cell's pools.
	Stats smr.Stats `json:"smr_stats"`
}

// Passed reports whether the cell behaved correctly (memory-safe and
// linearizable).
func (r CellResult) Passed() bool { return r.Outcome == "ok" }

// rng is a splitmix64 generator, one per worker.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Run executes one cell under the configured faults and checks the
// recorded history.
func Run(cell Cell, opts Options) (CellResult, error) {
	opts = opts.withDefaults()
	res := CellResult{DS: cell.DS, Scheme: cell.Scheme, Kind: cell.Kind}
	start := time.Now()

	in := newInjector(opts.Faults.YieldEvery)
	var clock linchk.Clock
	var recs []*linchk.Recorder
	newRec := func() *linchk.Recorder {
		r := linchk.NewRecorder(&clock, len(recs))
		recs = append(recs, r)
		return r
	}

	// Kind-specific wiring: build the target, its recorded worker
	// closures, the prefill, and the stalled reader's single op.
	var (
		pools       []bench.PoolInfo
		finish      func()
		agitate     func()
		unreclaimed func() int64
		stats       func() smr.Stats
		prefill     func()
		workers     []func()
		stallOp     func()
	)
	switch cell.Kind {
	case "map":
		if cell.DS == "somap" && opts.Faults.ResizeStorm {
			// Storm knob: the somap target reads these package vars at
			// construction (same pattern as bench.FixedReclaimEvery).
			// 2 initial buckets + load factor 1 force a doubling on
			// nearly every net insert for the whole run.
			ib, ml := bench.SomapInitialBuckets, bench.SomapMaxLoad
			bench.SomapInitialBuckets, bench.SomapMaxLoad = 2, 1
			defer func() { bench.SomapInitialBuckets, bench.SomapMaxLoad = ib, ml }()
		}
		target, err := bench.NewTarget(cell.DS, cell.Scheme, arena.ModeDetect)
		if err != nil {
			return res, err
		}
		pools, finish, agitate, unreclaimed = target.Pools, target.Finish, target.Agitate, target.Unreclaimed
		stats = target.Stats
		handles := make([]*bench.Recorded, opts.Workers)
		for w := range handles {
			handles[w] = bench.NewRecorded(target.NewHandle(), newRec())
		}
		prefill = func() {
			for k := uint64(0); k < opts.Keys; k += 2 {
				handles[0].Insert(k, k+1000)
			}
		}
		for w := range handles {
			w := w
			h := handles[w]
			seed := opts.Seed + uint64(w)*0x1234567
			delay := 0
			if opts.Faults.DelayRetire > 0 && w%2 == 1 {
				delay = opts.Faults.DelayRetire
			}
			workers = append(workers, func() {
				r := rng{s: seed}
				for i := 0; i < opts.Ops; i++ {
					k := r.next() % opts.Keys
					switch c := r.next() % 100; {
					case c < 40:
						h.Get(k)
					case c < 70:
						h.Insert(k, r.next())
					default:
						if h.Delete(k) && delay > 0 {
							gosched(delay)
						}
					}
				}
			})
		}
		sh := bench.NewRecorded(target.NewHandle(), newRec())
		stallOp = func() { sh.Get(0) }
		if opts.Faults.ParkedWorker {
			// Park mid-insert: the key is outside the worked range so the
			// traversal walks (and derefs) the whole shared prefix first.
			stallOp = func() { sh.Insert(opts.Keys+1, 42) }
		}
	case "queue":
		target, err := bench.NewQueueTarget(cell.Scheme, arena.ModeDetect)
		if err != nil {
			return res, err
		}
		pools, finish, agitate, unreclaimed = target.Pools, target.Finish, target.Agitate, target.Unreclaimed
		stats = target.Stats
		handles := make([]*bench.RecordedQueue, opts.Workers)
		for w := range handles {
			handles[w] = bench.NewRecordedQueue(target.NewHandle(), newRec())
		}
		prefill = func() {
			for j := 0; j < 4; j++ {
				handles[0].Enqueue(uint64(1)<<48 | uint64(j))
			}
		}
		for w := range handles {
			w := w
			h := handles[w]
			seed := opts.Seed + uint64(w)*0x7654321
			delay := 0
			if opts.Faults.DelayRetire > 0 && w%2 == 1 {
				delay = opts.Faults.DelayRetire
			}
			workers = append(workers, func() {
				r := rng{s: seed}
				for i := 0; i < opts.Ops; i++ {
					if r.next()%100 < 50 {
						h.Enqueue(uint64(w+2)<<32 | uint64(i))
					} else if _, ok := h.Dequeue(); ok && delay > 0 {
						gosched(delay)
					}
				}
			})
		}
		sh := bench.NewRecordedQueue(target.NewHandle(), newRec())
		stallOp = func() { sh.Dequeue() }
		if opts.Faults.ParkedWorker {
			stallOp = func() { sh.Enqueue(uint64(1)<<49 | 7) }
		}
	case "stack":
		target, err := bench.NewStackTarget(cell.Scheme, arena.ModeDetect)
		if err != nil {
			return res, err
		}
		pools, finish, agitate, unreclaimed = target.Pools, target.Finish, target.Agitate, target.Unreclaimed
		stats = target.Stats
		handles := make([]*bench.RecordedStack, opts.Workers)
		for w := range handles {
			handles[w] = bench.NewRecordedStack(target.NewHandle(), newRec())
		}
		prefill = func() {
			for j := 0; j < 4; j++ {
				handles[0].Push(uint64(1)<<48 | uint64(j))
			}
		}
		for w := range handles {
			w := w
			h := handles[w]
			seed := opts.Seed + uint64(w)*0xABCDEF
			delay := 0
			if opts.Faults.DelayRetire > 0 && w%2 == 1 {
				delay = opts.Faults.DelayRetire
			}
			workers = append(workers, func() {
				r := rng{s: seed}
				for i := 0; i < opts.Ops; i++ {
					if r.next()%100 < 50 {
						h.Push(uint64(w+2)<<32 | uint64(i))
					} else if _, ok := h.Pop(); ok && delay > 0 {
						gosched(delay)
					}
				}
			})
		}
		sh := bench.NewRecordedStack(target.NewHandle(), newRec())
		stallOp = func() { sh.Pop() }
		if opts.Faults.ParkedWorker {
			stallOp = func() { sh.Push(uint64(1)<<49 | 7) }
		}
	default:
		return res, fmt.Errorf("stress: unknown cell kind %q", cell.Kind)
	}

	// Detect mode panics on the first bug by default; the harness wants
	// counts so unsafe cells run to completion and report attribution.
	stalling := opts.Faults.StallReader || opts.Faults.ParkedWorker
	for _, p := range pools {
		p.SetCount()
		if opts.Faults.YieldEvery > 0 || stalling {
			p.SetDerefHook(in.hook)
		}
	}

	prefill()

	// Stalled participant: armed while it is the only deref-ing goroutine.
	var stallWG sync.WaitGroup
	if stalling {
		in.arm()
		stallWG.Add(1)
		go func() {
			defer stallWG.Done()
			stallOp()
		}()
		res.ParkedStall = in.awaitParked(500 * time.Millisecond)
	}

	var stopStorm atomic.Bool
	var stormWG sync.WaitGroup
	if opts.Faults.Storm && agitate != nil {
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			for !stopStorm.Load() {
				agitate()
				runtime.Gosched()
			}
		}()
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w func()) {
			defer wg.Done()
			w()
		}(w)
	}
	wg.Wait()
	stopStorm.Store(true)
	stormWG.Wait()
	in.releaseParked()
	stallWG.Wait()

	for _, p := range pools {
		p.SetDerefHook(nil)
	}
	finish()

	for _, p := range pools {
		st := p.Stats()
		res.UAF += st.UAF
		res.DoubleFree += st.DoubleFree
	}
	res.Unreclaimed = unreclaimed()
	if stats != nil {
		res.Stats = stats()
	}
	for _, p := range pools {
		ps := p.Stats()
		res.Stats.ArenaLive += ps.Live
		if p.Mode() == arena.ModeDetect {
			res.Stats.ArenaQuarantined += ps.Frees
		}
	}

	h := linchk.Merge(recs...)
	res.Ops = len(h.Ops)
	var v linchk.Verdict
	if res.UAF == 0 && res.DoubleFree == 0 {
		// Memory-safety verdicts take precedence; checking a history
		// produced by a memory-unsafe run would waste the search budget
		// on a structure that is already known-broken.
		copts := linchk.Opts{MaxNodes: opts.MaxNodes}
		switch cell.Kind {
		case "map":
			v = linchk.CheckKV(linchk.MapSpec{}, h, copts)
		case "queue":
			v = linchk.Check(linchk.QueueSpec{}, h, copts)
		case "stack":
			v = linchk.Check(linchk.StackSpec{}, h, copts)
		}
		res.Explored = v.Explored
	}

	switch {
	case res.UAF > 0:
		res.Outcome = "uaf"
		res.Report = fmt.Sprintf("memory-unsafe: %d use-after-free derefs detected by the arena", res.UAF)
	case res.DoubleFree > 0:
		res.Outcome = "double-free"
		res.Report = fmt.Sprintf("memory-unsafe: %d double frees detected by the arena", res.DoubleFree)
	case v.Outcome == linchk.OutcomeNonLinearizable:
		res.Outcome = "non-linearizable"
		res.Report = v.Report()
	case v.Outcome == linchk.OutcomeExhausted:
		res.Outcome = "exhausted"
		res.Report = v.Report()
	default:
		res.Outcome = "ok"
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res, nil
}
