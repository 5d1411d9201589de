package core

import (
	"context"
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// templateOps is the library of march-element operation shapes the repair
// phase draws from. The shapes are the recurring building blocks of the
// linked-fault literature: read-verify-write hammers for transition and
// disturb coupling faults, double reads for deceptive reads, non-transition
// writes for write destructive faults. Each shape is offered in both
// address orders; applicability is filtered by the entry-value constraint.
var templateOps = [][]string{
	{"r0", "w1"},
	{"r1", "w0"},
	{"r0"},
	{"r1"},
	{"r0", "r0"},
	{"r1", "r1"},
	{"w0"},
	{"w1"},
	{"r0", "w1", "r1", "w0"},
	{"r1", "w0", "r0", "w1"},
	{"r0", "r0", "w0", "r0", "w1"},
	{"r1", "r1", "w1", "r1", "w0"},
	{"r0", "w0", "r0", "w1"},
	{"r1", "w1", "r1", "w0"},
	{"r0", "r0", "w0", "r0", "w1", "w1", "r1"},
	{"r1", "r1", "w1", "r1", "w0", "w0", "r0"},
	{"r0", "w1", "r1", "w1", "r1"},
	{"r1", "w0", "r0", "w0", "r0"},
	{"r0", "w1", "w1", "r1"},
	{"r1", "w0", "w0", "r0"},
	// The March RAW element shapes: back-to-back write/read hammers that
	// sensitize the two-operation dynamic faults.
	{"r0", "w0", "r0", "r0", "w1", "r1"},
	{"r1", "w1", "r1", "r1", "w0", "r0"},
	// Triple reads: the read-read deceptive dynamic faults (dDRDF/dCFdr
	// with an r-r sensitization) flip on the second read but still return
	// the expected value; only a third read observes the corruption.
	{"r0", "r0", "r0"},
	{"r1", "r1", "r1"},
	// Triple read followed by a flip: covers read-read deceptive couplings
	// whose aggressor condition is the complement of the victim value (the
	// trailing write moves earlier cells of the sweep to the aggressor
	// state while later cells still hold the victim value).
	{"r1", "r1", "r1", "w0"},
	{"r0", "r0", "r0", "w1"},
	// Opposite-polarity write-read hammers: arm a w-r dynamic aggressor
	// sequence while the rest of the array (the victim) holds the other
	// sweep value.
	{"r1", "w0", "w1", "r1"},
	{"r0", "w1", "w0", "r0"},
	{"r1", "w0", "r0", "w1", "r1"},
	{"r0", "w1", "r1", "w0", "r0"},
	// The March SL element shapes: the completeness backstop (March SL
	// covers every static linked fault).
	{"r0", "r0", "w1", "w1", "r1", "r1", "w0", "w0", "r0", "w1"},
	{"r1", "r1", "w0", "w0", "r0", "r0", "w1", "w1", "r1", "w0"},
}

type template struct {
	order march.AddrOrder
	ops   []fp.Op
	entry fp.Value // required fault-free entry value (VX = any)
	exit  func(fp.Value) fp.Value
}

func buildTemplates() []template {
	var out []template
	add := func(ops []fp.Op) {
		entry := entryConstraint(ops)
		for _, order := range []march.AddrOrder{march.Up, march.Down} {
			ops := ops
			out = append(out, template{
				order: order,
				ops:   ops,
				entry: entry,
				exit:  func(v fp.Value) fp.Value { return exitValue(ops, v) },
			})
		}
	}
	for _, shape := range templateOps {
		ops := make([]fp.Op, len(shape))
		for i, s := range shape {
			op, err := fp.ParseOp(s)
			if err != nil {
				panic(err)
			}
			ops[i] = op
		}
		add(ops)
		// A write-prefixed variant makes every entry-constrained shape
		// reachable from any candidate exit value (the prefix write bridges
		// the polarity); the minimizer drops the prefix when redundant.
		if entry := entryConstraint(ops); entry.IsBinary() {
			add(append([]fp.Op{fp.W(entry)}, ops...))
		}
	}
	return out
}

// repair is phase 2 of the generator: while the fault simulator reports
// uncovered faults, append the template element covering the most of them
// (greedy set cover). This generalizes Figure 5's "apply the Sequence of
// Operations to each memory cell" to the coupling faults whose excitation
// and observation live on different cells. Termination is guaranteed by the
// March SL element shapes in the template library.
func repair(ctx context.Context, cand march.Test, faults []linked.Fault, cfg sim.Config, opts Options, st *Stats) (march.Test, error) {
	templates := buildTemplates()
	for {
		if err := ctx.Err(); err != nil {
			return cand, err
		}
		missing, err := uncovered(cand, faults, cfg, st)
		if err != nil {
			return cand, err
		}
		if len(missing) == 0 {
			return cand, nil
		}

		// The templates applicable at the candidate's exit value, in
		// template order, as one batch of one-element extensions of cand.
		v := testExit(cand)
		var applicable []int
		var elems []march.Element
		for ti, tpl := range templates {
			if !opts.Orders.Allows(tpl.order) {
				continue
			}
			if tpl.entry.IsBinary() && v.IsBinary() && tpl.entry != v {
				continue
			}
			if tpl.entry.IsBinary() && !v.IsBinary() {
				continue // cannot prove consistency on unknown entry value
			}
			elem := march.NewElement(tpl.order, tpl.ops...)
			trial := cand.Clone()
			trial.Elems = append(trial.Elems, elem)
			if trial.CheckConsistency() != nil {
				continue
			}
			applicable = append(applicable, ti)
			elems = append(elems, elem)
		}

		// One simulation of cand per missing fault answers every template
		// (sim.Extensions); each (template, fault) pair still counts as one
		// candidate evaluation.
		prefix, err := sim.NewSchedule(cand, cfg)
		if err != nil {
			return cand, err
		}
		batch := prefix.Extend(elems)
		gains := make([]int, len(elems))
		det := make([]bool, len(elems))
		for _, f := range missing {
			if err := ctx.Err(); err != nil {
				return cand, err
			}
			err := batch.Detects(f, det)
			st.Simulations += len(elems)
			if err != nil {
				return cand, err
			}
			for i, d := range det {
				if d {
					gains[i]++
				}
			}
		}
		best := -1
		bestGain := 0
		for i, ti := range applicable {
			gain := gains[i]
			if gain > bestGain || (gain == bestGain && gain > 0 && len(templates[ti].ops) < len(templates[best].ops)) {
				best = ti
				bestGain = gain
			}
		}
		if bestGain == 0 {
			// No single template makes progress (cannot happen for the
			// paper's fault lists, but user-defined faults may need a
			// re-initialization first).
			if v != fp.V0 {
				cand.Elems = append(cand.Elems, march.NewElement(march.Any, fp.W0))
				continue
			}
			return cand, fmt.Errorf("core: repair cannot cover %d faults (first: %s)", len(missing), missing[0].ID())
		}
		tpl := templates[best]
		cand.Elems = append(cand.Elems, march.NewElement(tpl.order, tpl.ops...))
		st.RepairElements++
	}
}
