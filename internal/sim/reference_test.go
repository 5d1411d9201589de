package sim_test

import (
	"fmt"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// The simulator's reference is the independent oracle (internal/oracle): a
// Mealy-automaton fault simulator that shares no verdict-path code with
// sim. Every comparison below asks both for the verdict and the witness of
// one (test, fault, configuration) triple and requires them to agree bit
// for bit; the witness is the first undetected scenario in reference order,
// which both enumerate identically.

// assertMatchesOracle fails the test unless the schedule's answer for the
// fault equals the oracle's.
func assertMatchesOracle(t *testing.T, label string, sched *sim.Schedule, f linked.Fault) {
	t.Helper()
	oDet, oWit, oErr := oracle.Detects(sched.Test(), f, oracle.ConfigFromSim(sched.Config()))
	sDet, sWit, sErr := sched.DetectsFault(f)
	if (oErr != nil) != (sErr != nil) {
		t.Fatalf("%s: oracle err=%v, schedule err=%v", label, oErr, sErr)
	}
	if oErr != nil {
		return
	}
	if oDet != sDet {
		t.Fatalf("%s: oracle detected=%v, schedule detected=%v", label, oDet, sDet)
	}
	if (oWit == nil) != (sWit == nil) {
		t.Fatalf("%s: oracle witness=%v, schedule witness=%v", label, oWit, sWit)
	}
	if oWit != nil && oWit.String() != sWit.String() {
		t.Fatalf("%s: witness mismatch:\n  oracle:   %s\n  schedule: %s", label, oWit, sWit)
	}
}

// schedule compiles a march test or fails the test.
func schedule(t *testing.T, mt march.Test, cfg sim.Config) *sim.Schedule {
	t.Helper()
	s, err := sim.NewSchedule(mt, cfg)
	if err != nil {
		t.Fatalf("%s: NewSchedule: %v", mt.Name, err)
	}
	return s
}

// TestScheduleMatchesReference pins the simulator's correctness contract:
// for every library march test and every shipped fault list, the compiled
// schedule produces the same verdict and the same witness scenario as the
// oracle, under the exhaustive, lazy, 5-cell and scalar-only
// configurations.
func TestScheduleMatchesReference(t *testing.T) {
	lists := []struct {
		name   string
		faults []linked.Fault
		short  bool // run even with -short
	}{
		{"List2", faultlist.List2(), true},
		{"SimpleStatic", faultlist.SimpleStatic(), true},
		{"Dynamic", faultlist.Dynamic(), true},
		{"List1", faultlist.List1(), false},
	}
	configs := []struct {
		name string
		cfg  sim.Config
	}{
		{"exhaustive", sim.DefaultConfig()},
		{"lazy", sim.Config{Size: 4}},
		{"size5", sim.Config{Size: 5, ExhaustiveOrders: true}},
		{"scalar", sim.ScalarOnly(sim.DefaultConfig())},
	}
	for _, lc := range lists {
		for _, cc := range configs {
			if !lc.short && (testing.Short() || cc.name == "size5") {
				continue // List1 × full library is the expensive cell; cover it once
			}
			t.Run(lc.name+"/"+cc.name, func(t *testing.T) {
				for _, mt := range march.Lib() {
					sched := schedule(t, mt, cc.cfg)
					for _, f := range lc.faults {
						assertMatchesOracle(t, fmt.Sprintf("%s vs %s", mt.Name, f.ID()), sched, f)
					}
				}
			})
		}
	}
}

// manyBindingsFault builds a hand-made single-cell fault with six bound
// primitives — more than any taxonomy fault (and more than the fixed-size
// scratch arrays the simulator used to carry). It deliberately bypasses
// Validate: the simulator must size its buffers from the fault, not from an
// assumed maximum.
func manyBindingsFault() linked.Fault {
	fps := []string{
		"<0w1/1/->",   // TF up
		"<1w0/0/->",   // TF down ... kept harmless: F equals the written value
		"<0r0/0/1>",   // IRF-style misread
		"<1r1/1/0>",   // IRF-style misread, other polarity
		"<0w1r1/0/0>", // dynamic write-read pair
		"<1/0/->",     // state fault
	}
	f := linked.Fault{Kind: linked.Simple, Cells: 1}
	for _, s := range fps {
		f.FPs = append(f.FPs, linked.Binding{FP: fp.MustParseFP(s), A: -1, V: 0})
	}
	return f
}

// TestManyBindingsNoPanic is the regression test for the fixed-size
// armed/matched arrays: a fault binding more than four primitives must
// simulate (it used to panic with an index out of range), and the compiled
// path must agree with the oracle on it.
func TestManyBindingsNoPanic(t *testing.T) {
	f := manyBindingsFault()
	for _, mt := range []march.Test{march.MATSPlus, march.MarchSL, march.MarchRAW} {
		assertMatchesOracle(t, mt.Name+" vs many-bindings fault", schedule(t, mt, sim.DefaultConfig()), f)
	}
}

// TestNoAggressorStateConditionInert pins the settleCtx/waitCtx guard: a
// hand-built two-cell primitive bound without an aggressor but carrying a
// binary aggressor condition can never be sensitized (the fault-primitive
// matchers compare the condition against VX). The compiled paths must agree
// with the oracle instead of indexing faulty[-1].
func TestNoAggressorStateConditionInert(t *testing.T) {
	faults := []linked.Fault{
		// State-triggered (exercises the settleCtx guard).
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<1;0/1/->"), A: -1, V: 0},
		}},
		// Wait-sensitized (exercises the waitCtx guard; March RAW has no t
		// ops, so pair it with a test that would run waitCtx if any did).
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<1;0t/1/->"), A: -1, V: 0},
		}},
		// Op-triggered, for completeness of the inert-binding handling.
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<1;0w1/0/->"), A: -1, V: 0},
		}},
	}
	for _, lanes := range []bool{true, false} {
		cfg := sim.DefaultConfig()
		if !lanes {
			cfg = sim.ScalarOnly(cfg)
		}
		for _, mt := range []march.Test{march.MATSPlus, march.MarchSL} {
			sched := schedule(t, mt, cfg)
			for _, f := range faults {
				assertMatchesOracle(t, fmt.Sprintf("%s vs inert %s (lanes=%v)", mt.Name, f.ID(), lanes), sched, f)
			}
		}
	}
}

// TestFourCellFaultUncached is the boundary test for the class-table bound:
// a 4-cell static fault must degrade to the uncached per-placement path (its
// ranks would not fit the class table) and still agree with the oracle —
// instead of silently corrupting the memoization like an unchecked 64-entry
// array would.
func TestFourCellFaultUncached(t *testing.T) {
	f := sim.FourCellFault()
	if sim.CanClassCache(f) {
		t.Fatalf("CanClassCache accepted a %d-cell fault", f.Cells)
	}
	for _, cfg := range []sim.Config{
		{Size: 5, ExhaustiveOrders: true},
		sim.ScalarOnly(sim.Config{Size: 6, ExhaustiveOrders: true}),
	} {
		for _, mt := range []march.Test{march.MATSPlus, march.MarchLF1} {
			assertMatchesOracle(t, fmt.Sprintf("%s vs 4-cell fault (size=%d)", mt.Name, cfg.Size),
				schedule(t, mt, cfg), f)
		}
	}
}
