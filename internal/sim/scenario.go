package sim

import (
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// forEachScenario enumerates every concrete scenario for a fault under the
// configuration and invokes fn; enumeration stops early when fn returns
// false. The callback receives a scenario whose slices are reused across
// invocations; it must copy them if it retains them.
//
// This is the uncompiled reference enumeration; production paths go through
// Schedule.runTree, which walks the identical scenario space over precompiled
// op streams (schedule_test.go pins verdict and witness equivalence).
func forEachScenario(t march.Test, f linked.Fault, cfg Config, fn func(Scenario) bool) error {
	size := cfg.size()
	k := f.Cells
	if k >= size {
		return fmt.Errorf("sim: memory of %d cells cannot place a %d-cell fault with a bystander", size, k)
	}

	orderSets, err := orderCombinations(t, cfg)
	if err != nil {
		return err
	}

	placement := make([]int, k)
	used := make([]bool, size)
	init := make([]fp.Value, k)

	var place func(depth int) bool
	place = func(depth int) bool {
		if depth == k {
			// Enumerate initial values of the fault cells.
			for bits := 0; bits < 1<<k; bits++ {
				for c := 0; c < k; c++ {
					init[c] = fp.ValueOf(uint8(bits>>c) & 1)
				}
				for _, orders := range orderSets {
					if !fn(Scenario{Placement: placement, Init: init, Orders: orders}) {
						return false
					}
				}
			}
			return true
		}
		for a := 0; a < size; a++ {
			if used[a] {
				continue
			}
			used[a] = true
			placement[depth] = a
			ok := place(depth + 1)
			used[a] = false
			if !ok {
				return false
			}
		}
		return true
	}
	place(0)
	return nil
}

// orderCombinations resolves the ⇕ elements of a test into the concrete
// address-order assignments the configuration requires.
func orderCombinations(t march.Test, cfg Config) ([][]march.AddrOrder, error) {
	base := make([]march.AddrOrder, len(t.Elems))
	nAny := 0
	for i, e := range t.Elems {
		base[i] = e.Order
		if e.Order == march.Any {
			nAny++
		}
	}
	if !cfg.ExhaustiveOrders {
		for i, o := range base {
			if o == march.Any {
				base[i] = march.Up
			}
		}
		return [][]march.AddrOrder{base}, nil
	}
	maxAny := cfg.MaxAnyElements
	if maxAny <= 0 {
		maxAny = 12
	}
	if nAny > maxAny {
		return nil, fmt.Errorf("sim: test %q has %d ⇕ elements; exhaustive order expansion capped at %d", t.Name, nAny, maxAny)
	}
	return march.OrderCombinations(base), nil
}

// cloneScenario deep-copies a scenario for retention as a witness.
func cloneScenario(s Scenario) *Scenario {
	return &Scenario{
		Placement: append([]int(nil), s.Placement...),
		Init:      append([]fp.Value(nil), s.Init...),
		Orders:    append([]march.AddrOrder(nil), s.Orders...),
	}
}

// DetectsFault reports whether the test detects the fault in every scenario.
// When it does not, the returned witness is one undetected scenario.
//
// The schedule is compiled once per call; callers checking one test against
// many faults should build a Schedule explicitly and reuse it.
func DetectsFault(t march.Test, f linked.Fault, cfg Config) (bool, *Scenario, error) {
	s, err := NewSchedule(t, cfg)
	if err != nil {
		return false, nil, err
	}
	return s.DetectsFault(f)
}
