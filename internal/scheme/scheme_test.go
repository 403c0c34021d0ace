package scheme

import (
	"testing"

	"github.com/gosmr/gosmr/internal/core"
	"github.com/gosmr/gosmr/internal/ebr"
	"github.com/gosmr/gosmr/internal/hp"
	"github.com/gosmr/gosmr/internal/rc"
	"github.com/gosmr/gosmr/internal/smr"
)

func TestLookupAndNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name] {
			t.Fatalf("duplicate scheme %q", s.Name)
		}
		seen[s.Name] = true
		if got, ok := Lookup(s.Name); !ok || got != s {
			t.Fatalf("Lookup(%q) = %v, %v", s.Name, got, ok)
		}
		if s.Control && (s.Servable || s.Stalled != Unmeasured) {
			t.Fatalf("control %q is servable or measured", s.Name)
		}
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Fatal("unknown scheme found")
	}
	for _, n := range Names(nil) {
		if s, _ := Lookup(n); s.Control {
			t.Fatalf("Names lists control %q", n)
		}
	}
	for _, c := range []string{Unsafe, ScotNoValidate} {
		if s, ok := Lookup(c); !ok || !s.Control {
			t.Fatalf("control %q missing from the table", c)
		}
	}
}

// TestNamesReturnsFreshSlice: callers such as the figure sweeps default
// to Names(nil) and may edit their copy; that must not reach the table.
func TestNamesReturnsFreshSlice(t *testing.T) {
	got := Names(nil)
	want := got[0]
	got[0] = "mutated"
	if Names(nil)[0] != want {
		t.Fatal("Names aliases the table")
	}
}

// TestDomainLifecycle builds every scheme's domain and runs the hooks the
// harnesses and the service use: a stall, its release, and the drain.
func TestDomainLifecycle(t *testing.T) {
	for _, s := range All() {
		d := s.New(0)
		set := 0
		for _, p := range []bool{d.Guards != nil, d.HP != nil, d.HPP != nil, d.RC != nil} {
			if p {
				set++
			}
		}
		if set != 1 {
			t.Fatalf("%s: %d family domains set, want 1", s.Name, set)
		}
		// Only the epoch schemes have a collection pulse.
		if epoch := s.Family == CS && s.Stalled != Unmeasured; (d.Agitate != nil) != epoch {
			t.Fatalf("%s: agitator present = %v", s.Name, d.Agitate != nil)
		}
		d.Stall()
		d.Stall()
		d.StallRelease()
		d.Drain()
		if d.Stats().Scheme == "" {
			t.Fatalf("%s: stats carry no scheme label", s.Name)
		}
	}
}

type csHandle struct{ g smr.Guard }

func (h csHandle) Guard() smr.Guard { return h.g }

type hpHandle struct{ t *hp.Thread }

func (h hpHandle) Thread() *hp.Thread { return h.t }

type hppHandle struct{ t *core.Thread }

func (h hppHandle) Thread() *core.Thread { return h.t }

type rcHandle struct{ g *rc.Guard }

func (h rcHandle) Guard() *rc.Guard { return h.g }

// TestFinishHandleReleases checks FinishHandle through each of the four
// handle accessors: the guard record or hazard slot returns to the
// domain.
func TestFinishHandleReleases(t *testing.T) {
	ebrD, _ := Lookup("ebr")
	d := ebrD.New(0)
	_, before := d.Guards.(*ebr.Domain).Records()
	h := csHandle{d.Guards.NewGuard(1)}
	d.FinishHandle(h)
	if _, after := d.Guards.(*ebr.Domain).Records(); after != before {
		t.Fatalf("ebr: live records %d after finish, want %d", after, before)
	}

	hpD, _ := Lookup("hp")
	d = hpD.New(0)
	d.FinishHandle(hpHandle{d.HP.NewThread(2)})
	if n := d.HP.Registry().InUse(); n != 0 {
		t.Fatalf("hp: %d slots in use after finish", n)
	}

	hppD, _ := Lookup("hp++")
	d = hppD.New(0)
	d.FinishHandle(hppHandle{d.HPP.NewThread(2)})
	if n := d.HPP.Registry().InUse(); n != 0 {
		t.Fatalf("hp++: %d slots in use after finish", n)
	}

	rcD, _ := Lookup("rc")
	d = rcD.New(0)
	_, before = d.RC.EBR().Records()
	d.FinishHandle(rcHandle{d.RC.NewGuard()})
	if _, after := d.RC.EBR().Records(); after != before {
		t.Fatalf("rc: live records %d after finish, want %d", after, before)
	}
}
