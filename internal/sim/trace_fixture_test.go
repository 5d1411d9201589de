package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// traceFixturePath holds the trace fixture captured on the two-machine
// interpreter that TraceScenario ran on before it moved onto the compiled
// kernel. Every trace the kernel renders today must match it byte for byte.
const traceFixturePath = "testdata/trace_fixture.txt"

// firstScenarios returns the fault's first scenarios in reference order:
// cells placed at addresses 0..k-1, every initial value, ⇕ resolved upward.
func firstScenarios(t march.Test, f linked.Fault) []sim.Scenario {
	orders := make([]march.AddrOrder, len(t.Elems))
	for i, e := range t.Elems {
		orders[i] = e.Order
		if orders[i] == march.Any {
			orders[i] = march.Up
		}
	}
	placement := make([]int, f.Cells)
	for i := range placement {
		placement[i] = i
	}
	var out []sim.Scenario
	for bits := 0; bits < 1<<f.Cells; bits++ {
		init := make([]fp.Value, f.Cells)
		for c := range init {
			init[c] = fp.ValueOf(uint8(bits>>c) & 1)
		}
		out = append(out, sim.Scenario{Placement: placement, Init: init, Orders: orders})
	}
	return out
}

func renderTrace(t march.Test, f linked.Fault, s sim.Scenario) (string, error) {
	tr, err := sim.TraceScenario(t, f, s, sim.DefaultConfig())
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := tr.Render(&b, true); err != nil {
		return "", err
	}
	return b.String(), nil
}

// traceFixture renders the fixture text: one SHA-256 line per (library
// test, fault list) over the full renders of every fault's first scenarios
// and of its witness under the default configuration, then three traces
// verbatim: the documented March LF1 masked miss, a dynamic fault, and a
// read fault whose faulty return R differs from the value the cell holds.
func traceFixture() (string, error) {
	var out strings.Builder
	lists := []struct {
		name   string
		faults []linked.Fault
	}{
		{"List2", faultlist.List2()},
		{"Dynamic", faultlist.Dynamic()},
		{"SimpleStatic", faultlist.SimpleStatic()},
	}
	for _, mt := range march.Lib() {
		for _, l := range lists {
			h := sha256.New()
			for _, f := range l.faults {
				scens := firstScenarios(mt, f)
				det, wit, err := sim.DetectsFault(mt, f, sim.DefaultConfig())
				if err != nil {
					return "", err
				}
				if !det {
					scens = append(scens, *wit)
				}
				for _, s := range scens {
					r, err := renderTrace(mt, f, s)
					if err != nil {
						return "", fmt.Errorf("%s vs %s %s: %v", mt.Name, f.ID(), s, err)
					}
					h.Write([]byte(r))
				}
			}
			fmt.Fprintf(&out, "%s\t%s\t%s\n", mt.Name, l.name, hex.EncodeToString(h.Sum(nil)))
		}
	}

	lf1, err := linked.NewLF1(fp.MustParseFP("<0w1/0/->"), fp.MustParseFP("<0r0/1/0>"))
	if err != nil {
		return "", err
	}
	dyn, err := linked.NewSimple(fp.MustParseFP("<0w1r1/0/0>"))
	if err != nil {
		return "", err
	}
	irf, err := linked.NewSimple(fp.MustParseFP("<0r0/0/1>"))
	if err != nil {
		return "", err
	}
	for _, c := range []struct {
		t march.Test
		f linked.Fault
	}{
		{march.MarchLF1, lf1},
		{march.MarchRAW, dyn},
		{march.MATSPlus, irf},
	} {
		r, err := renderTrace(c.t, c.f, firstScenarios(c.t, c.f)[0])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "=== %s vs %s\n%s", c.t.Name, c.f.ID(), r)
	}
	return out.String(), nil
}

// TestTraceFixture pins TraceScenario's output byte for byte to the
// fixture recorded on the interpreter it replaced.
func TestTraceFixture(t *testing.T) {
	want, err := os.ReadFile(traceFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := traceFixture()
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n  got:  %s\n  want: %s", traceFixturePath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", traceFixturePath, len(gl), len(wl))
}
