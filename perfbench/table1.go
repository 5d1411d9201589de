package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// t1row is one generated row of the paper's Table 1.
type t1row struct {
	label      string // the paper's test name
	layer      string // suffix of the core.generate_ms metric
	list       string
	aggressive bool
	paperLen   int // the length the paper reports for the row
}

var table1Rows = []t1row{
	{"ABL", "list1", "list1", false, 37},
	{"RABL", "list1-aggressive", "list1", true, 35},
	{"ABL1", "list2", "list2", false, 9},
}

// table1Workload regenerates Table 1 in a closed loop with one caller.
// The seed only permutes the row order of each regeneration.
type table1Workload struct {
	lists map[string][]linked.Fault
	rng   *rand.Rand
	specs [][]string // specs[rep][row] in table1Rows order
}

func (w *table1Workload) setup(b *bench) (float64, error) {
	w.rng = rand.New(rand.NewSource(b.seed))
	var times []float64
	for i := 0; i < setupReps; i++ {
		start := cpuNow()
		w.lists = map[string][]linked.Fault{"list1": faultlist.List1(), "list2": faultlist.List2()}
		// A warm-up regeneration lets lazy pools and caches fill before
		// timing; it is part of what a user pays before the first answer.
		if _, err := w.regenerate(nil, 0); err != nil {
			return 0, err
		}
		times = append(times, (cpuNow() - start).Seconds())
	}
	return median(times), nil
}

// regenerate produces all three rows once, in a seed-chosen order, and
// returns their specs in table1Rows order.
func (w *table1Workload) regenerate(tr *tracer, parent int64) ([]string, error) {
	specs := make([]string, len(table1Rows))
	order := []int{0, 1, 2}
	if w.rng != nil {
		w.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, i := range order {
		r := table1Rows[i]
		var before runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		_, end := tr.begin("core.generate."+r.layer, parent, parent)
		res, err := core.Generate(w.lists[r.list], core.Options{Name: "March " + r.label + "-repro", Aggressive: r.aggressive})
		end()
		if err != nil {
			return nil, fmt.Errorf("row %s: %w", r.label, err)
		}
		if tr != nil && i == 0 {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			tr.count("core.simulations", float64(res.Stats.Simulations))
			tr.count("core.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}
		specs[i] = res.Test.ASCII()
	}
	return specs, nil
}

func (w *table1Workload) measure(b *bench, window time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	start, cpuStart := time.Now(), cpuNow()
	for time.Since(start) < window {
		p.attempted++
		t0, c0 := time.Now(), cpuNow()
		id, end := tr.begin("bench.op", 0, 0)
		specs, err := w.regenerate(tr, id)
		end()
		if err != nil {
			p.failed++
			continue
		}
		p.lat = append(p.lat, ms(time.Since(t0)))
		p.cpu = append(p.cpu, ms(cpuNow()-c0))
		w.specs = append(w.specs, specs)
	}
	p.elapsed, p.cpuTime = time.Since(start), cpuNow()-cpuStart
	p.good = len(p.lat)
	if tr != nil {
		table1Layers(b, tr)
	}
	if len(w.specs) > 0 {
		for _, s := range w.specs[0] {
			p.testLen += specLength(s)
		}
	}
	return p, nil
}

// check verifies every regeneration: each row repeats its first spec, is
// no longer than the paper's row, covers its list fully under the
// exhaustive simulator and agrees with the reference oracle.
func (w *table1Workload) check(b *bench) (int, error) {
	if len(w.specs) == 0 {
		return 0, nil
	}
	first := w.specs[0]
	rowOK := make([]bool, len(table1Rows))
	for i, r := range table1Rows {
		t, err := march.Parse(r.label, first[i])
		if err != nil {
			return 0, err
		}
		faults := w.lists[r.list]
		rep := sim.Simulate(t, faults, sim.DefaultConfig())
		diffs := oracle.CrossCheck(t, faults, sim.DefaultConfig())
		rowOK[i] = rep.Full() && len(diffs) == 0 && t.Length() <= r.paperLen
		b.note("table1 row %-5s %s = %dn (paper %dn), coverage %d/%d, oracle divergences %d",
			r.label, first[i], t.Length(), r.paperLen, rep.Detected(), rep.Total(), len(diffs))
	}
	wrong := 0
	for _, specs := range w.specs {
		for i := range table1Rows {
			if specs[i] != first[i] || !rowOK[i] {
				wrong++
				break
			}
		}
	}
	return wrong, nil
}

func (w *table1Workload) close() {}
