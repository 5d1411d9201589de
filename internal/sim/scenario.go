package sim

import (
	"fmt"

	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// ForEachPlacement enumerates the injective placements of k fault cells
// onto a memory of size cells in reference order: depth-first, each cell
// trying the free addresses in ascending order. Enumeration stops early when
// fn returns false. The placement slice is reused across invocations; fn
// must copy it to retain it.
func ForEachPlacement(k, size int, fn func(placement []int) bool) {
	placement := make([]int, k)
	used := make([]bool, size)

	var place func(depth int) bool
	place = func(depth int) bool {
		if depth == k {
			return fn(placement)
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
