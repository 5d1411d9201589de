package sim_test

import (
	"bytes"
	"strings"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// traceScenario traces the fault's first scenario: cells at 0..k-1, all
// initialized to 0, ⇕ resolved upward.
func traceScenario(t *testing.T, m march.Test, f linked.Fault) *sim.Trace {
	t.Helper()
	tr, err := sim.TraceScenario(m, f, firstScenarios(m, f)[0], sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The documented March LF1 miss (TF up masked by a pre-empting deceptive
// read) replayed step by step: the trace must show the fault firing without
// any detection.
func TestTraceMaskedFault(t *testing.T) {
	lf, err := linked.NewLF1(fp.MustParseFP("<0w1/0/->"), fp.MustParseFP("<0r0/1/0>"))
	if err != nil {
		t.Fatal(err)
	}
	tr := traceScenario(t, march.MarchLF1, lf)
	if tr.Detected {
		t.Fatal("this scenario is the documented March LF1 miss; it must not detect")
	}
	fired := false
	for _, s := range tr.Steps {
		if s.Detected {
			t.Error("no step may detect")
		}
		if len(s.Fired) > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("the masked fault must fire at least once in the trace")
	}
	var buf bytes.Buffer
	if err := tr.Render(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"NOT DETECTED", "fired", "March LF1"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

// A detected scenario shows the detecting read.
func TestTraceDetectedFault(t *testing.T) {
	sf, err := linked.NewSimple(fp.MustParseFP("<0w1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	tr := traceScenario(t, march.MATSPlus, sf)
	if !tr.Detected {
		t.Fatal("MATS+ detects the transition fault in this scenario")
	}
	sawDetect := false
	for _, s := range tr.Steps {
		if s.Detected {
			sawDetect = true
			if s.Op.Kind != fp.OpRead {
				t.Error("detection must happen on a read")
			}
			if s.GoodRet == s.FaultyRet {
				t.Error("detected step must have diverging read returns")
			}
		}
	}
	if !sawDetect {
		t.Error("no detecting step recorded")
	}
	var buf bytes.Buffer
	if err := tr.Render(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DETECTED") {
		t.Error("rendered trace must flag the detection")
	}
}

// forEachScenario enumerates a fault's scenarios on a memory of size cells
// in reference order — placements (sim.ForEachPlacement), then initial
// values, then ⇕ order combinations — until fn returns false. The scenario's
// slices are reused across calls.
func forEachScenario(mt march.Test, f linked.Fault, size int, exhaustive bool, fn func(sim.Scenario) bool) {
	base := make([]march.AddrOrder, len(mt.Elems))
	for i, e := range mt.Elems {
		base[i] = e.Order
		if !exhaustive && base[i] == march.Any {
			base[i] = march.Up
		}
	}
	orderSets := march.OrderCombinations(base)
	init := make([]fp.Value, f.Cells)
	sim.ForEachPlacement(f.Cells, size, func(placement []int) bool {
		for bits := 0; bits < 1<<f.Cells; bits++ {
			for c := range init {
				init[c] = fp.ValueOf(uint8(bits>>c) & 1)
			}
			for _, orders := range orderSets {
				if !fn(sim.Scenario{Placement: placement, Init: init, Orders: orders}) {
					return false
				}
			}
		}
		return true
	})
}

// TestTraceAgreesWithSimulator traces a fault's scenarios in reference
// order: the first trace that detects nothing must be the witness both the
// simulator and the oracle report, and when every trace detects, both must
// call the fault detected. Library test i checks every stride-th fault of a
// list starting at i mod stride, which keeps the test within a unit-test
// budget; List #1 (mostly two- and three-cell faults with many scenarios
// each) takes a wider stride.
func TestTraceAgreesWithSimulator(t *testing.T) {
	cfg := sim.DefaultConfig()
	small := append(faultlist.List2(), faultlist.Dynamic()...)
	small = append(small, faultlist.SimpleStatic()...)
	lists := []struct {
		faults []linked.Fault
		stride int
	}{
		{small, 3},
		{faultlist.List1(), 97},
	}
	if testing.Short() {
		lists = lists[:1]
	}
	for i, mt := range march.Lib() {
		for _, l := range lists {
			for j := i % l.stride; j < len(l.faults); j += l.stride {
				checkTraceOrder(t, mt, l.faults[j], cfg)
			}
		}
	}
}

// checkTraceOrder is one fault of TestTraceAgreesWithSimulator.
func checkTraceOrder(t *testing.T, mt march.Test, f linked.Fault, cfg sim.Config) {
	t.Helper()
	var miss *sim.Scenario
	forEachScenario(mt, f, cfg.Size, cfg.ExhaustiveOrders, func(s sim.Scenario) bool {
		tr, err := sim.TraceScenario(mt, f, s, cfg)
		if err != nil {
			t.Fatalf("%s vs %s %s: %v", mt.Name, f.ID(), s, err)
		}
		if tr.Detected {
			return true
		}
		w := s.Clone()
		miss = &w
		return false
	})
	sDet, sWit, err := sim.DetectsFault(mt, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oDet, oWit, err := oracle.Detects(mt, f, oracle.ConfigFromSim(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if sDet != (miss == nil) || oDet != (miss == nil) {
		t.Fatalf("%s vs %s: traces miss %v, simulator detected=%v, oracle detected=%v",
			mt.Name, f.ID(), miss, sDet, oDet)
	}
	if miss != nil && (miss.String() != sWit.String() || miss.String() != oWit.String()) {
		t.Fatalf("%s vs %s: first missing trace %s, simulator witness %s, oracle witness %s",
			mt.Name, f.ID(), miss, sWit, oWit)
	}
}

// TestScheduleScenarioCount checks ScenarioCount against the number of
// scenarios the reference-order enumeration visits.
func TestScheduleScenarioCount(t *testing.T) {
	cfg := sim.DefaultConfig()
	for _, mt := range []march.Test{march.MATSPlus, march.MarchSL, march.MarchRAW} {
		sched, err := sim.NewSchedule(mt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faultlist.List2() {
			want := 0
			forEachScenario(mt, f, cfg.Size, cfg.ExhaustiveOrders, func(sim.Scenario) bool { want++; return true })
			got, err := sched.ScenarioCount(f)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s vs %s: ScenarioCount=%d, reference order enumerates %d", mt.Name, f.ID(), got, want)
			}
		}
	}
}

func TestTraceScenarioValidation(t *testing.T) {
	sf, err := linked.NewSimple(fp.MustParseFP("<0w1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := linked.NewSimple(fp.MustParseFP("<0w1;0/1/->"))
	if err != nil {
		t.Fatal(err)
	}
	mats := []march.AddrOrder{march.Up, march.Up, march.Down}
	for _, c := range []struct {
		name string
		f    linked.Fault
		s    sim.Scenario
	}{
		{"placement arity", sf, sim.Scenario{Placement: []int{0, 1}, Init: []fp.Value{fp.V0, fp.V0}, Orders: mats}},
		{"order arity", sf, sim.Scenario{Placement: []int{0}, Init: []fp.Value{fp.V0}, Orders: []march.AddrOrder{march.Up}}},
		{"init arity", sf, sim.Scenario{Placement: []int{0}, Init: nil, Orders: mats}},
		{"address past the memory", sf, sim.Scenario{Placement: []int{4}, Init: []fp.Value{fp.V0}, Orders: mats}},
		{"negative address", sf, sim.Scenario{Placement: []int{-1}, Init: []fp.Value{fp.V0}, Orders: mats}},
		{"duplicate address", cf, sim.Scenario{Placement: []int{2, 2}, Init: []fp.Value{fp.V0, fp.V0}, Orders: mats}},
	} {
		if _, err := sim.TraceScenario(march.MATSPlus, c.f, c.s, sim.DefaultConfig()); err == nil {
			t.Errorf("%s: TraceScenario accepted %s", c.name, c.s)
		}
	}
}
