// Package scheme is the one table of reclamation schemes. Each
// descriptor names a scheme, puts it in a family — the handle protocol a
// data structure must implement to run on it — and records the facts
// the harnesses and the service need about it (servable by kvsvc,
// must-fail control, backlog under a stall). Every other scheme list in
// the repository is derived from this table.
//
// A descriptor also builds a live Domain that carries the scheme's
// lifecycle hooks: stats, the §4.4 stalled participant, the collection
// pulse, per-handle finish and the final drain. A data structure speaks
// to that one contract; which variants it implements decides where a
// scheme applies (the paper's Table 2).
package scheme

import (
	"github.com/gosmr/gosmr/internal/core"
	"github.com/gosmr/gosmr/internal/ebr"
	"github.com/gosmr/gosmr/internal/hp"
	"github.com/gosmr/gosmr/internal/nbr"
	"github.com/gosmr/gosmr/internal/nr"
	"github.com/gosmr/gosmr/internal/pebr"
	"github.com/gosmr/gosmr/internal/rc"
	"github.com/gosmr/gosmr/internal/smr"
	"github.com/gosmr/gosmr/internal/unsafefree"
)

// Family is the handle protocol a scheme's domain speaks; a data
// structure implements one variant per family.
type Family int

// The families, one per variant a data structure can implement.
const (
	// CS: critical-section schemes behind smr.GuardDomain; handles
	// expose Guard() smr.Guard.
	CS Family = iota
	// HP: original hazard pointers; handles expose Thread() *hp.Thread.
	HP
	// HPP: HP++; handles expose Thread() *core.Thread.
	HPP
	// SCOT: plain HP under a SCOT-restructured traversal; handles
	// expose Thread() *hp.Thread.
	SCOT
	// RC: deferred reference counting; handles expose Guard() *rc.Guard.
	RC
)

var familyNames = [...]string{CS: "CS", HP: "HP", HPP: "HP++", SCOT: "SCOT", RC: "RC"}

func (f Family) String() string { return familyNames[f] }

// Backlog classifies a scheme's retired-but-unfreed backlog while one
// participant is parked mid-operation (the §4.4 robustness adversary).
type Backlog int

const (
	// Unmeasured: the backlog means nothing comparable. nr never frees,
	// rc's gauge counts deferred decrements rather than nodes, and the
	// controls are broken on purpose.
	Unmeasured Backlog = iota
	// Unbounded: the parked pin holds the epoch, so the backlog tracks
	// total retires (EBR).
	Unbounded
	// Bounded: the parked participant protects a handful of nodes, or is
	// ejected or neutralized.
	Bounded
)

// Names of the two must-fail controls.
const (
	// Unsafe frees on retire with no grace period.
	Unsafe = "unsafefree"
	// ScotNoValidate is hp-scot with the SCOT handshake elided: hazards
	// are announced but never validated, the unsound naive-HP optimistic
	// walk the paper rules out in §2.3.
	ScotNoValidate = "hp-scot-novalidate"
)

// Desc describes one scheme.
type Desc struct {
	Name   string
	Family Family
	// Servable reports whether kvsvc serves the scheme (gosmrd -scheme).
	// rc is not: its guards would retain cross-bucket traces that the
	// service's long-lived pooled handles never drain promptly.
	Servable bool
	// Control marks a deliberately broken must-fail control for
	// detect-mode stress runs. Controls are never benchmark subjects.
	Control bool
	// SkipValidation marks the SCOT control: only structures whose SCOT
	// variant can elide the handshake run it.
	SkipValidation bool
	// NeverFrees marks the no-reclamation baseline, whose unreclaimed
	// count only grows.
	NeverFrees bool
	// Stalled is the scheme's backlog behaviour under a parked participant.
	Stalled Backlog

	// newDomain builds the scheme instance; every is the fixed
	// per-thread reclaim cadence (0 = the shared-budget adaptive trigger).
	newDomain func(every int) smr.Domain
}

func newEBR(every int) smr.Domain {
	d := ebr.NewDomain()
	d.CollectEvery = every
	return d
}

func newPEBR(every int) smr.Domain {
	d := pebr.NewDomain()
	d.CollectEvery = every
	return d
}

func newNBR(every int) smr.Domain {
	d := nbr.NewDomain()
	d.CollectEvery = every
	return d
}

func newHP(every int) smr.Domain {
	d := hp.NewDomain()
	d.ReclaimEvery = every
	return d
}

// newSCOT is newHP relabelled: SCOT runs on an unmodified plain-HP
// domain, distinguished only in stats output.
func newSCOT(every int) smr.Domain {
	d := hp.NewDomain()
	d.ReclaimEvery = every
	d.Name = "hp-scot"
	return d
}

func newHPP(every int) smr.Domain {
	return core.NewDomain(core.Options{ReclaimEvery: every})
}

func newHPPFence(every int) smr.Domain {
	return core.NewDomain(core.Options{ReclaimEvery: every, EpochFence: true})
}

// table is the only scheme list: benchmark subjects in figure-column
// order, then the controls.
var table = []*Desc{
	{Name: "nr", Family: CS, Servable: true, NeverFrees: true,
		newDomain: func(int) smr.Domain { return nr.NewDomain() }},
	{Name: "ebr", Family: CS, Servable: true, Stalled: Unbounded, newDomain: newEBR},
	{Name: "pebr", Family: CS, Servable: true, Stalled: Bounded, newDomain: newPEBR},
	{Name: "nbr", Family: CS, Servable: true, Stalled: Bounded, newDomain: newNBR},
	{Name: "hp", Family: HP, Servable: true, Stalled: Bounded, newDomain: newHP},
	{Name: "hp++", Family: HPP, Servable: true, Stalled: Bounded, newDomain: newHPP},
	{Name: "hp++ef", Family: HPP, Servable: true, Stalled: Bounded, newDomain: newHPPFence},
	{Name: "hp-scot", Family: SCOT, Servable: true, Stalled: Bounded, newDomain: newSCOT},
	{Name: "rc", Family: RC,
		newDomain: func(int) smr.Domain { return rc.NewDomain() }},
	{Name: Unsafe, Family: CS, Control: true,
		newDomain: func(int) smr.Domain { return unsafefree.NewDomain() }},
	{Name: ScotNoValidate, Family: SCOT, Control: true, SkipValidation: true, newDomain: newSCOT},
}

// All returns every descriptor in table order: the benchmark subjects,
// then the controls.
func All() []*Desc { return append([]*Desc(nil), table...) }

// Lookup returns the descriptor named name.
func Lookup(name string) (*Desc, bool) {
	for _, d := range table {
		if d.Name == name {
			return d, true
		}
	}
	return nil, false
}

// Names returns, in table order, the names of the non-control schemes
// for which keep reports true (every one when keep is nil). The slice
// is fresh on every call.
func Names(keep func(*Desc) bool) []string {
	var out []string
	for _, d := range table {
		if !d.Control && (keep == nil || keep(d)) {
			out = append(out, d.Name)
		}
	}
	return out
}

// drainRounds is how many collection passes Drain runs. Epoch schemes
// need ~3 passes for a freshly retired node (advance to e+1, e+2, then
// free); the extra headroom absorbs adopted orphans that re-enter the bag
// mid-sweep. Bounded so a stalled pin (the robustness adversary) cannot
// hang Drain.
const drainRounds = 8

// collector is the epoch-guard surface Agitate and Drain need: the EBR,
// PEBR and NBR guards, and the RC guard through its embedded EBR guard.
type collector interface {
	Collect()
	Finish()
}

// Domain is one live scheme instance. Exactly one of Guards, HP, HPP
// and RC is set, by family (HP for both HP and SCOT). The embedded
// smr.Domain supplies Unreclaimed, PeakUnreclaimed and Stats.
//
// Stall, StallRelease, FinishHandle and Drain must be called from one
// goroutine at a time; Agitate, if set, from one goroutine only.
type Domain struct {
	*Desc
	smr.Domain

	Guards smr.GuardDomain
	HP     *hp.Domain
	HPP    *core.Domain
	RC     *rc.Domain

	// Agitate, if non-nil, is one pulse of reclamation pressure: an
	// epoch-advance attempt that ejects (PEBR) or neutralizes (NBR)
	// lagging participants. Only the epoch schemes have one.
	Agitate func()

	parked []func()
}

// New builds a live domain of the scheme. every pins the classic fixed
// per-thread reclaim cadence (0 = the shared-budget adaptive trigger);
// nr, rc and the unsafefree control ignore it.
func (s *Desc) New(every int) *Domain {
	d := &Domain{Desc: s, Domain: s.newDomain(every)}
	switch s.Family {
	case CS:
		d.Guards = d.Domain.(smr.GuardDomain)
		if g, ok := d.Guards.NewGuard(1).(collector); ok {
			d.Agitate = g.Collect
		}
	case HP, SCOT:
		d.HP = d.Domain.(*hp.Domain)
	case HPP:
		d.HPP = d.Domain.(*core.Domain)
	case RC:
		d.RC = d.Domain.(*rc.Domain)
	}
	return d
}

// Stall parks a participant that never progresses: a pinned guard for
// the critical-section families, an occupied hazard slot for the hazard
// families. StallRelease undoes every Stall.
func (d *Domain) Stall() {
	var release func()
	switch d.Family {
	case CS:
		g := d.Guards.NewGuard(1)
		g.Pin()
		release = func() { finishGuard(g) }
	case RC:
		g := d.RC.NewGuard()
		g.Pin()
		release = g.Finish
	case HP, SCOT:
		t := d.HP.NewThread(1)
		t.Protect(0, 1)
		release = func() { t.Clear(0); t.Finish() }
	case HPP:
		t := d.HPP.NewThread(1)
		t.Protect(0, 1)
		release = func() { t.Clear(0); t.Finish() }
	}
	d.parked = append(d.parked, release)
}

// StallRelease finishes every participant Stall parked, so a later Drain
// can reach zero.
func (d *Domain) StallRelease() {
	for _, release := range d.parked {
		release()
	}
	d.parked = nil
}

// finishGuard finishes a critical-section guard: EBR, PEBR and NBR
// guards revoke their protections and hand leftovers to the domain's
// orphan list; nr and unsafefree guards hold nothing beyond the pin.
func finishGuard(g smr.Guard) {
	if f, ok := g.(interface{ Finish() }); ok {
		f.Finish()
	} else {
		g.Unpin()
	}
}

// FinishHandle finishes a data-structure handle of this domain through
// the accessor its family exposes (Guard() or Thread()): pending work
// is flushed, leftovers are orphaned for Drain to adopt, and the guard
// record or hazard slots return to the domain. The handle must not be
// used afterwards.
func (d *Domain) FinishHandle(h any) {
	switch h := h.(type) {
	case interface{ Guard() smr.Guard }:
		finishGuard(h.Guard())
	case interface{ Thread() *hp.Thread }:
		h.Thread().Finish()
	case interface{ Thread() *core.Thread }:
		h.Thread().Finish()
	case interface{ Guard() *rc.Guard }:
		h.Guard().Finish()
	}
}

// Drain is the final reclamation pass after every handle is finished: a
// fresh participant adopts the orphans and reclaims what the scheme
// allows. Epoch schemes collect drainRounds times, so a still-stalled
// pin bounds the work instead of hanging it.
func (d *Domain) Drain() {
	var g any
	switch d.Family {
	case CS:
		g = d.Guards.NewGuard(1)
	case RC:
		g = d.RC.NewGuard()
	case HP, SCOT:
		d.HP.NewThread(0).Reclaim()
	case HPP:
		d.HPP.NewThread(0).Reclaim()
	}
	if c, ok := g.(collector); ok {
		for i := 0; i < drainRounds; i++ {
			c.Collect()
		}
		c.Finish()
	}
}
