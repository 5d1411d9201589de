package sim

import (
	"fmt"
	"io"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// TraceStep records one operation of a traced simulation.
type TraceStep struct {
	// Element and OpIndex locate the operation in the march test.
	Element int
	OpIndex int
	// Addr is the cell the operation addresses.
	Addr int
	// Op is the operation.
	Op fp.Op
	// GoodBefore/FaultyBefore are the fault-cell values before the step
	// (indexed like the fault's cells).
	GoodBefore, FaultyBefore []fp.Value
	// GoodAfter/FaultyAfter are the fault-cell values after the step.
	GoodAfter, FaultyAfter []fp.Value
	// Fired lists the indices of the fault's primitives that fired.
	Fired []int
	// GoodRet/FaultyRet are the read return values (VX for writes).
	GoodRet, FaultyRet fp.Value
	// Detected marks a read whose returns differ.
	Detected bool
}

// Trace is a recorded simulation of one scenario.
type Trace struct {
	Test     march.Test
	Fault    linked.Fault
	Scenario Scenario
	Steps    []TraceStep
	Detected bool
}

// TraceScenario replays one scenario of a fault under a march test and
// records every operation: the tool behind "why does this test miss this
// fault". The whole run is recorded even after the first detection.
//
// The replay runs the compiled kernel one step at a time over the
// scenario's operation stream; the fault-free values come from the
// stream's good trace and its writes.
func TraceScenario(t march.Test, f linked.Fault, s Scenario, cfg Config) (*Trace, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	size := cfg.size()
	if err := s.check(f, len(t.Elems), size); err != nil {
		return nil, err
	}

	m := newMachine(size)
	hasState, hasDynamic := m.load(f, s.Placement, s.Init)
	// good holds the fault-free value of each fault cell.
	good := append([]fp.Value(nil), s.Init...)
	snapshot := func() ([]fp.Value, []fp.Value) {
		fl := make([]fp.Value, f.Cells)
		for i, addr := range s.Placement {
			fl[i] = m.faulty[addr]
		}
		return append([]fp.Value(nil), good...), fl
	}

	tr := &Trace{Test: t, Fault: f, Scenario: s.Clone()}
	stream := compileStream(t, s.Orders, size)
	for i := range stream.steps {
		cs := &stream.steps[i]
		cell := m.cellAt[cs.addr]
		gb, fb := snapshot()
		step := TraceStep{
			Element: cs.elem, OpIndex: cs.opIdx, Addr: cs.addr, Op: cs.op,
			GoodBefore: gb, FaultyBefore: fb,
			GoodRet: fp.VX, FaultyRet: fp.VX,
		}
		detected := m.runSteps(s.Init, stream.steps[i:i+1], hasState, hasDynamic)
		switch cs.op.Kind {
		case fp.OpRead:
			step.GoodRet = cs.good
			if !cs.goodKnown {
				step.GoodRet = fp.V0
				if cell >= 0 {
					step.GoodRet = s.Init[cell]
				}
			}
			step.FaultyRet = step.GoodRet
			if detected {
				step.FaultyRet = m.detRet
			}
		case fp.OpWrite:
			if cell >= 0 {
				good[cell] = cs.op.Data
			}
		}
		step.Detected = detected
		ga, fa := snapshot()
		step.GoodAfter, step.FaultyAfter = ga, fa
		for i := range f.FPs {
			// A primitive "fired" when its victim's faulty value diverged
			// from (or converged back to) the good machine at this step.
			v := f.FPs[i].V
			divergedNow := fa[v] != ga[v] && fb[v] == gb[v]
			maskedNow := fa[v] == ga[v] && fb[v] != gb[v] && f.FPs[i].FP.F == fa[v]
			if divergedNow || maskedNow {
				step.Fired = append(step.Fired, i)
			}
		}
		tr.Steps = append(tr.Steps, step)
		if detected {
			tr.Detected = true
		}
	}
	return tr, nil
}

// check rejects a scenario that does not fit the fault, the test or a
// memory of size cells.
func (s Scenario) check(f linked.Fault, elems, size int) error {
	if len(s.Placement) != f.Cells {
		return fmt.Errorf("sim: scenario places %d cells, fault has %d", len(s.Placement), f.Cells)
	}
	if len(s.Init) != f.Cells {
		return fmt.Errorf("sim: scenario initializes %d cells, fault has %d", len(s.Init), f.Cells)
	}
	if len(s.Orders) != elems {
		return fmt.Errorf("sim: scenario resolves %d orders, test has %d elements", len(s.Orders), elems)
	}
	used := make([]bool, size)
	for c, addr := range s.Placement {
		if addr < 0 || addr >= size {
			return fmt.Errorf("sim: scenario places cell %d at address %d, outside a memory of %d cells", c, addr, size)
		}
		if used[addr] {
			return fmt.Errorf("sim: scenario places two cells at address %d", addr)
		}
		used[addr] = true
	}
	return nil
}

// Render writes the trace as an aligned table. Only steps touching the
// fault's cells (or firing a primitive) are shown unless full is true.
func (tr *Trace) Render(w io.Writer, full bool) error {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %s vs %s\n", tr.Test.Name, tr.Fault.ID())
	fmt.Fprintf(&b, "scenario: %s\n", tr.Scenario.String())
	fmt.Fprintf(&b, "%-5s %-4s %-4s %-4s  %-10s %-10s %-6s %s\n",
		"elem", "op", "addr", "oper", "good", "faulty", "ret", "notes")
	touched := map[int]bool{}
	for _, a := range tr.Scenario.Placement {
		touched[a] = true
	}
	for _, s := range tr.Steps {
		if !full && !touched[s.Addr] && len(s.Fired) == 0 && !s.Detected {
			continue
		}
		ret := ""
		if s.Op.Kind == fp.OpRead {
			ret = s.GoodRet.String() + "/" + s.FaultyRet.String()
		}
		notes := ""
		if len(s.Fired) > 0 {
			parts := make([]string, len(s.Fired))
			for i, fi := range s.Fired {
				parts[i] = fmt.Sprintf("FP%d fired", fi+1)
			}
			notes = strings.Join(parts, ", ")
		}
		if s.Detected {
			if notes != "" {
				notes += "; "
			}
			notes += "DETECTED"
		}
		fmt.Fprintf(&b, "M%-4d %-4d %-4d %-4s  %-10s %-10s %-6s %s\n",
			s.Element, s.OpIndex, s.Addr, s.Op,
			valuesString(s.GoodAfter), valuesString(s.FaultyAfter), ret, notes)
	}
	if tr.Detected {
		b.WriteString("result: DETECTED\n")
	} else {
		b.WriteString("result: NOT DETECTED (masked or never sensitized)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func valuesString(vals []fp.Value) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(v.String())
	}
	return b.String()
}
