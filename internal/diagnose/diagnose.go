// Package diagnose builds fault dictionaries and locates faults from march
// test failure signatures — the diagnosis counterpart of the generation
// flow. A production tester runs the march test and records which reads
// failed (the syndrome); matching the syndrome against the simulated
// signatures of every fault model narrows the defect down to the candidate
// faults (and, with placement-resolved signatures, to the failing cells).
//
// The dictionary is built with the same fault simulator that certifies
// generated tests, so diagnosis and generation share one semantic model.
package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// ReadID identifies one read operation of a march test applied to a memory
// of a given size: the element, the visited cell, and the operation index
// within the element.
type ReadID struct {
	Element int
	Addr    int
	OpIndex int
}

// String renders "M1#3@2": element, op index within the element, address.
func (r ReadID) String() string {
	return fmt.Sprintf("M%d#%d@%d", r.Element, r.OpIndex, r.Addr)
}

// Syndrome is the set of failing reads of one march test run.
type Syndrome map[ReadID]bool

// Key returns a canonical string for the syndrome (sorted read IDs), usable
// as a dictionary key.
func (s Syndrome) Key() string {
	ids := make([]string, 0, len(s))
	for r := range s {
		ids = append(ids, r.String())
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// Entry is one dictionary entry: a fault instance (model + placement +
// initial state) and the syndrome it produces.
type Entry struct {
	Fault    linked.Fault
	Scenario sim.Scenario
	Syndrome Syndrome
}

// Dictionary maps syndrome keys to the fault instances that produce them.
type Dictionary struct {
	Test    march.Test
	Size    int
	Entries []Entry
	byKey   map[string][]int
}

// collectSyndrome replays one scenario and records every failing read.
func collectSyndrome(t march.Test, f linked.Fault, s sim.Scenario, cfg sim.Config) (Syndrome, error) {
	tr, err := sim.TraceScenario(t, f, s, cfg)
	if err != nil {
		return nil, err
	}
	syn := Syndrome{}
	for _, step := range tr.Steps {
		if step.Detected {
			syn[ReadID{Element: step.Element, Addr: step.Addr, OpIndex: step.OpIndex}] = true
		}
	}
	return syn, nil
}

// Build simulates every fault of the list in every placement (with the
// canonical all-zero initial state and canonical ⇕ resolution) and records
// the failure signatures. Faults that produce no failing read under the
// test are recorded with an empty syndrome — they are undiagnosable by this
// test, which Coverage-style analysis must have flagged already.
func Build(t march.Test, faults []linked.Fault, cfg sim.Config) (*Dictionary, error) {
	if cfg.Size <= 0 {
		cfg.Size = 4
	}
	d := &Dictionary{Test: t, Size: cfg.Size, byKey: map[string][]int{}}
	for _, f := range faults {
		var err error
		sim.ForEachPlacement(f.Cells, cfg.Size, func(pl []int) bool {
			s := canonicalScenario(t, f, pl)
			var syn Syndrome
			if syn, err = collectSyndrome(t, f, s, cfg); err != nil {
				return false
			}
			d.byKey[syn.Key()] = append(d.byKey[syn.Key()], len(d.Entries))
			d.Entries = append(d.Entries, Entry{Fault: f, Scenario: s, Syndrome: syn})
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// canonicalScenario is the deterministic scenario diagnosis simulates for a
// fault instance: the given placement (copied), all-zero initial values and
// every ⇕ element resolved upward. Build and signature share it, so
// dictionary entries and signatures agree.
func canonicalScenario(t march.Test, f linked.Fault, placement []int) sim.Scenario {
	orders := make([]march.AddrOrder, len(t.Elems))
	for i, e := range t.Elems {
		orders[i] = e.Order
		if orders[i] == march.Any {
			orders[i] = march.Up
		}
	}
	return sim.Scenario{
		Placement: append([]int(nil), placement...),
		Init:      make([]fp.Value, f.Cells),
		Orders:    orders,
	}
}

// Lookup returns the fault instances whose signature matches the syndrome
// exactly.
func (d *Dictionary) Lookup(s Syndrome) []Entry {
	var out []Entry
	for _, idx := range d.byKey[s.Key()] {
		out = append(out, d.Entries[idx])
	}
	return out
}

// Diagnose simulates a fault instance as the "device under test" and looks
// its syndrome up in the dictionary — the round trip a tester performs.
func (d *Dictionary) Diagnose(f linked.Fault, s sim.Scenario, cfg sim.Config) ([]Entry, Syndrome, error) {
	if cfg.Size <= 0 {
		cfg.Size = d.Size
	}
	syn, err := collectSyndrome(d.Test, f, s, cfg)
	if err != nil {
		return nil, nil, err
	}
	return d.Lookup(syn), syn, nil
}

// Resolution summarizes how well the dictionary separates faults: how many
// distinct signatures exist, the largest ambiguity class, and how many
// instances are undiagnosable (empty syndrome).
type Resolution struct {
	Instances     int
	Signatures    int
	LargestClass  int
	Undiagnosable int
	PerfectUnique int // instances with a signature shared by no other
}

// Resolution computes the dictionary's diagnostic resolution.
func (d *Dictionary) Resolution() Resolution {
	r := Resolution{Instances: len(d.Entries), Signatures: len(d.byKey)}
	for key, idxs := range d.byKey {
		if key == "" {
			r.Undiagnosable += len(idxs)
			continue
		}
		if len(idxs) > r.LargestClass {
			r.LargestClass = len(idxs)
		}
		if len(idxs) == 1 {
			r.PerfectUnique++
		}
	}
	return r
}

// String renders the resolution summary.
func (r Resolution) String() string {
	return fmt.Sprintf("instances=%d signatures=%d unique=%d largestClass=%d undiagnosable=%d",
		r.Instances, r.Signatures, r.PerfectUnique, r.LargestClass, r.Undiagnosable)
}
