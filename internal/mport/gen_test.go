package mport

import (
	"testing"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// The directed construction covers the whole two-port catalog before
// minimization — fast, so it runs in every test round.
func TestGenerateDirectedConstruction(t *testing.T) {
	test, rep, err := Generate(Catalog(), Options{Name: "RAW-2P", SkipMinimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full() {
		t.Fatalf("incomplete: %s", rep.Summary())
	}
	if err := test.Validate(); err != nil {
		t.Error(err)
	}
	if err := test.CheckConsistency(4); err != nil {
		t.Error(err)
	}
}

// march2P is the catalog's generated and minimized two-port test, recorded
// before the scenario loops were folded into one: generation is
// deterministic, so any change to the simulator's verdicts or to the
// minimizer's trial order shows up here.
const march2P = "c(w0:-) ^(r0:r0,r0:-) ^(w1:-) ^(r1:r1,r1:-) ^(w0:-) v(r:-,w1:w1+1,w0:-) ^(w0:-) ^(r:-,w1:w1-1,w0:-) v(r:-,w0:-,w1:w1+1,w0:-) ^(r:-) ^(w0:-) v(r:-,w1:w0+1) ^(r:-,w1:-,w0:w1-1) v(r:-) ^(w1:-) ^(r:-,w0:w1-1) ^(w0:-) v(r:-,w1:r+1,w0:-) ^(r:w1-1) v(r:-) ^(w1:-) ^(r:-,w0:-,r:w1-1) ^(w0:-) v(r:-,w1:r+1) ^(w0:-) ^(r:-,w1:-,r:w1-1,w0:-) v(r:-,w0:-,w1:r+1) ^(r:-) ^(w0:-) ^(r:-,w1:w0-1) ^(w1:-) v(r:-,w0:w1+1) ^(r:-,w0:-,w1:w0-1) v(r:-,w1:-,w0:w0+1,w1:-) ^(r:-) ^(w1:-) v(r:-,w0:w0+1,w1:-) ^(w1:-) ^(r:-,w0:w0-1,w1:-) ^(w0:-) ^(r:w0-1,w1:-) ^(w1:-) v(r:-,w0:r+1) ^(w1:-) ^(r:-,w0:-,r:w0-1,w1:-) v(r:-,w1:-,w0:r+1,w1:-) ^(w0:-) ^(r:-,w1:-,r:w0-1) ^(w1:-) v(r:-,w0:r+1,w1:-) ^(r:-) ^(w0:-) ^(r:-,w1:r-1,w0:-) ^(w1:-) v(r:-,w0:-,r:w1+1) ^(r:-,w0:-,w1:r-1,w0:-) ^(r:-,w1:-,w0:r-1) ^(w1:-) v(r:-,w0:-,r:w0+1,w1:-) ^(w1:-) ^(r:-,w0:r-1) v(r:r+1) ^(r:-) ^(w1:-) v(r:-,w0:-,r:r+1) ^(w1:-) ^(r:-,w0:-,r:r-1) ^(r:-,w1:-,r:r-1,w0:-) ^(w1:-) v(r:-,w0:-,r:r+1,w1:-) ^(r:r-1,w0:-) v(r:-,w1:-,r:w1+1,w0:-) ^(w0:-) ^(r:-,w1:r-1) v(r:w1+1,w0:-) ^(r:-) ^(w0:-) v(r:-,w1:-,r:w0+1) ^(r:-,w1:-,w0:r-1,w1:-) ^(r:-,w0:r-1,w1:-) ^(w0:-) v(r:-,w1:-,r:r+1,w0:-) ^(r:r-1,w1:-) ^(r:-,w0:-,r:r-1,w1:-) ^(w0:-) v(r:-,w1:-,r:r+1) ^(w0:-) ^(r:-,w1:-,r:r-1) v(r:r+1) ^(r:-)"

// Full generation with minimization: certified coverage, substantially
// shorter than the raw construction, and byte-identical to march2P.
func TestGenerate2P(t *testing.T) {
	if testing.Short() {
		t.Skip("tens-of-seconds minimization run")
	}
	raw, _, err := Generate(Catalog(), Options{SkipMinimize: true})
	if err != nil {
		t.Fatal(err)
	}
	test, rep, err := Generate(Catalog(), Options{Name: "March 2P"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full() {
		t.Fatalf("incomplete: %s", rep.Summary())
	}
	if test.Length() >= raw.Length() {
		t.Errorf("minimized %dn not shorter than raw %dn", test.Length(), raw.Length())
	}
	if got := test.ASCII(); got != march2P {
		t.Errorf("March 2P changed:\n got %s\nwant %s", got, march2P)
	}
	if err := test.CheckConsistency(4); err != nil {
		t.Error(err)
	}
	t.Logf("two-port test: %dn over %d elements", test.Length(), len(test.Elems))
}

func TestGenerateErrors2P(t *testing.T) {
	if _, _, err := Generate(nil, Options{}); err == nil {
		t.Error("empty fault list must error")
	}
}

func TestFireElementShape(t *testing.T) {
	f := Fault{Class: WCC, State: fp.V1,
		C1: WeakCond{Init: fp.V0, Op: fp.W1},
		C2: WeakCond{Init: fp.V0, Op: fp.RX}}
	down := fireElement(f, false)
	if down.Order != march.Down {
		t.Errorf("down fire order = %v", down.Order)
	}
	if len(down.Ops) != 4 {
		t.Fatalf("fire element has %d ops, want 4", len(down.Ops))
	}
	if down.Ops[0].A != fp.RX || down.Ops[0].BTarget != None {
		t.Errorf("fire element must lead with a transparent read, got %v", down.Ops[0])
	}
	if down.Ops[2].BTarget != Next {
		t.Errorf("down fire pair must target the processed (next) neighbor, got %v", down.Ops[2].BTarget)
	}
	up := fireElement(f, true)
	if up.Order != march.Up || up.Ops[2].BTarget != Prev {
		t.Errorf("up fire element shape wrong: %v", up)
	}
	for _, e := range []Element{down, up} {
		for _, op := range e.Ops {
			if err := op.Validate(); err != nil {
				t.Errorf("fire element op invalid: %v", err)
			}
		}
	}
	bg := bgElement(f)
	if len(bg.Ops) != 1 || bg.Ops[0].A != fp.W1 {
		t.Errorf("background element must write the victim state: %v", bg)
	}
}

// Each directed fire element actually sensitizes its fault for at least
// some scenarios when preceded by the right background.
func TestFireElementSensitizes(t *testing.T) {
	count := 0
	for _, f := range Catalog() {
		if f.Class != WCC {
			continue
		}
		count++
		if count > 8 {
			break // a sample is enough; full coverage is certified elsewhere
		}
		trial := Test{Name: "probe", Elems: []Element{
			bgElement(f),
			fireElement(f, false),
			fireElement(f, true),
			{Order: march.Up, Ops: []PairOp{{A: fp.RX, BTarget: None}}},
			{Order: march.Down, Ops: []PairOp{{A: fp.RX, BTarget: None}}},
		}}
		det, total, err := DetectsCount(trial, f)
		if err != nil {
			t.Fatal(err)
		}
		if det == 0 {
			t.Errorf("%s: directed elements never sensitize (0/%d)", f.ID(), total)
		}
	}
}
