package marchgen_test

import (
	"bytes"
	"strings"
	"testing"

	"marchgen"
	"marchgen/internal/fp"
)

func TestFacadeParseMarch(t *testing.T) {
	m, err := marchgen.ParseMarch("x", "c(w0) ^(r0,w1) v(r1,w0)")
	if err != nil {
		t.Fatal(err)
	}
	if m.Length() != 5 {
		t.Errorf("Length = %d", m.Length())
	}
	if _, err := marchgen.ParseMarch("x", "nonsense"); err == nil {
		t.Error("bad notation must error")
	}
}

func TestFacadeParseFP(t *testing.T) {
	f, err := marchgen.ParseFP("<0w1;0/1/->")
	if err != nil {
		t.Fatal(err)
	}
	if f.Cells != 2 {
		t.Errorf("Cells = %d", f.Cells)
	}
	if _, err := marchgen.ParseFP("<bad>"); err == nil {
		t.Error("bad FP must error")
	}
}

func TestFacadeLibrary(t *testing.T) {
	lib := marchgen.Library()
	if len(lib) != 19 {
		t.Errorf("library has %d tests, want 19", len(lib))
	}
	sl, ok := marchgen.MarchByName("March SL")
	if !ok || sl.Length() != 41 {
		t.Errorf("March SL lookup: %v %v", sl, ok)
	}
	if _, ok := marchgen.MarchByName("nope"); ok {
		t.Error("unknown name must fail")
	}
}

func TestFacadeFaultLists(t *testing.T) {
	if got := len(marchgen.List1()); got != 594 {
		t.Errorf("List1 = %d", got)
	}
	if got := len(marchgen.List2()); got != 18 {
		t.Errorf("List2 = %d", got)
	}
	if got := len(marchgen.SimpleFaults()); got != 48 {
		t.Errorf("SimpleFaults = %d", got)
	}
	if got := len(marchgen.RealisticList(marchgen.List2())); got != 6 {
		t.Errorf("RealisticList(List2) = %d", got)
	}
	byName, err := marchgen.FaultListByName("list2")
	if err != nil || len(byName) != 18 {
		t.Errorf("FaultListByName: %d, %v", len(byName), err)
	}
	if _, err := marchgen.FaultListByName("nope"); err == nil {
		t.Error("unknown list must error")
	}
}

func TestFacadeSimulateAndDetects(t *testing.T) {
	sl, _ := marchgen.MarchByName("March SL")
	r := marchgen.Simulate(sl, marchgen.List2())
	if !r.Full() {
		t.Errorf("March SL on List2: %s", r.Summary())
	}
	rw := marchgen.SimulateWith(sl, marchgen.List2(), marchgen.SimConfig{Size: 5, ExhaustiveOrders: true})
	if !rw.Full() {
		t.Errorf("March SL on List2 (5 cells): %s", rw.Summary())
	}
	lf, err := marchgen.LinkFaults(marchgen.LF3, "<0w1;0/1/->", "<0w1;1/0/->")
	if err != nil {
		t.Fatal(err)
	}
	det, err := marchgen.Detects(sl, lf)
	if err != nil || !det {
		t.Errorf("Detects = %v, %v", det, err)
	}
}

func TestFacadeFaultConstruction(t *testing.T) {
	if _, err := marchgen.SimpleFault("<0w1/0/->"); err != nil {
		t.Error(err)
	}
	if _, err := marchgen.SimpleFault("<junk>"); err == nil {
		t.Error("bad FP spec must error")
	}
	kinds := []marchgen.FaultKind{marchgen.LF2aa, marchgen.LF3}
	for _, k := range kinds {
		if _, err := marchgen.LinkFaults(k, "<0w1;0/1/->", "<0w1;1/0/->"); k == marchgen.LF3 && err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
	if _, err := marchgen.LinkFaults(marchgen.LF1, "<0w1/0/->", "<0r0/1/1>"); err != nil {
		t.Error(err)
	}
	if _, err := marchgen.LinkFaults(marchgen.Simple, "<0w1/0/->", "<0r0/1/1>"); err == nil {
		t.Error("Simple is not a linked kind")
	}
	if _, err := marchgen.LinkFaults(marchgen.LF1, "<bad>", "<0r0/1/1>"); err == nil {
		t.Error("bad FP1 must error")
	}
	if _, err := marchgen.LinkFaults(marchgen.LF1, "<0w1/0/->", "<bad>"); err == nil {
		t.Error("bad FP2 must error")
	}
}

func TestFacadePatternDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := marchgen.PatternDOT(&buf, 2, nil, "G0"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Error("no DOT output")
	}
	lf, _ := marchgen.LinkFaults(marchgen.LF3, "<0w1;0/1/->", "<0w1;1/0/->")
	if err := marchgen.PatternDOT(&buf, 2, []marchgen.Fault{lf}, "PG"); err == nil {
		t.Error("3-cell fault on 2-cell model must error")
	}
}

func TestFacadeGenerateAndCertify(t *testing.T) {
	res, err := marchgen.Generate(marchgen.List2(), marchgen.Options{Name: "FACADE"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Full() {
		t.Fatalf("incomplete: %s", res.Report.Summary())
	}
	// Re-certify through the facade.
	r, err := marchgen.Certify(res.Test, marchgen.List2())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Full() {
		t.Errorf("Certify: %s", r.Summary())
	}
}

// TestTraceWitnessRejectsOutOfRangeScenario: TraceWitness replays on the
// default 4-cell memory, so a witness taken from a larger simulated memory
// (here a cell at address 4, as a 5-cell SimulateWith run may report) must
// come back as an error instead of an index panic.
func TestTraceWitnessRejectsOutOfRangeScenario(t *testing.T) {
	mats, _ := marchgen.MarchByName("MATS+")
	f, err := marchgen.SimpleFault("<0w1/0/->")
	if err != nil {
		t.Fatal(err)
	}
	orders := []marchgen.AddrOrder{marchgen.Up, marchgen.Up, marchgen.Down}
	var buf bytes.Buffer
	for _, w := range []marchgen.Witness{
		{Placement: []int{4}, Init: []fp.Value{fp.V0}, Orders: orders},
		{Placement: []int{0}, Init: nil, Orders: orders},
	} {
		if err := marchgen.TraceWitness(&buf, mats, f, w); err == nil {
			t.Errorf("TraceWitness accepted %s", w)
		}
	}
	ok := marchgen.Witness{Placement: []int{3}, Init: []fp.Value{fp.V0}, Orders: orders}
	if err := marchgen.TraceWitness(&buf, mats, f, ok); err != nil {
		t.Errorf("TraceWitness(%s): %v", ok, err)
	}
}
