// Package march implements the march test notation of Definition 10 of the
// paper: a March Test is a sequence of March Elements, each a sequence of
// memory operations applied to every cell in a given address order
// (increasing ⇑, decreasing ⇓, or irrelevant ⇕).
//
// The package provides the test/element data model, a parser and printer for
// the conventional notation (both Unicode arrows and an ASCII form), a
// complexity metric (the "37n" of the paper's Table 1), a fault-free
// consistency checker, and the library of published march tests the paper
// compares against (March SL, March LF1, the 43n test of Al-Harbi & Gupta)
// together with the paper's own results (March ABL, RABL, ABL1) and the
// classic tests used for simulator validation.
package march

import (
	"fmt"
	"strings"

	"marchgen/internal/fp"
)

// AddrOrder is the address order of a march element (Definition 10).
type AddrOrder uint8

// Address orders.
const (
	Any  AddrOrder = iota // ⇕: order irrelevant
	Up                    // ⇑: increasing addresses
	Down                  // ⇓: decreasing addresses
)

// String returns the conventional double-arrow notation.
func (o AddrOrder) String() string {
	switch o {
	case Any:
		return "⇕"
	case Up:
		return "⇑"
	case Down:
		return "⇓"
	default:
		return fmt.Sprintf("AddrOrder(%d)", uint8(o))
	}
}

// ASCII returns a plain-ASCII rendering of the order: "c" (don't care, the
// paper's own convention in Table 1), "^" (up) and "v" (down).
func (o AddrOrder) ASCII() string {
	switch o {
	case Any:
		return "c"
	case Up:
		return "^"
	case Down:
		return "v"
	default:
		return "?"
	}
}

// Addresses returns the cell visit order for a memory of n cells. The Any
// order canonically iterates upward.
func (o AddrOrder) Addresses(n int) []int {
	addrs := make([]int, n)
	for i := range addrs {
		if o == Down {
			addrs[i] = n - 1 - i
		} else {
			addrs[i] = i
		}
	}
	return addrs
}

// OrderCombinations expands every ⇕ entry of orders into both concrete
// orders: it returns 2^k assignments for k ⇕ entries, where bit j of an
// assignment's index selects ⇓ (1) or ⇑ (0) for the j-th ⇕ entry. Concrete
// entries are copied unchanged, and the input is not modified.
func OrderCombinations(orders []AddrOrder) [][]AddrOrder {
	var anyIdx []int
	for i, o := range orders {
		if o == Any {
			anyIdx = append(anyIdx, i)
		}
	}
	out := make([][]AddrOrder, 0, 1<<len(anyIdx))
	for bits := 0; bits < 1<<len(anyIdx); bits++ {
		combo := append([]AddrOrder(nil), orders...)
		for j, idx := range anyIdx {
			if bits>>j&1 == 0 {
				combo[idx] = Up
			} else {
				combo[idx] = Down
			}
		}
		out = append(out, combo)
	}
	return out
}

// Element is a March Element: a sequence of operations applied to every
// memory cell in the given address order before moving to the next cell.
type Element struct {
	Order AddrOrder
	Ops   []fp.Op
}

// NewElement builds an element from parsed operations.
func NewElement(order AddrOrder, ops ...fp.Op) Element {
	return Element{Order: order, Ops: ops}
}

// String renders the element, e.g. "⇑(r0,w1)".
func (e Element) String() string {
	return e.Order.String() + "(" + fp.FormatOps(e.Ops) + ")"
}

// ASCII renders the element with ASCII order markers, e.g. "^(r0,w1)".
func (e Element) ASCII() string {
	return e.Order.ASCII() + "(" + fp.FormatOps(e.Ops) + ")"
}

// Origin classifies where a march test came from: a published paper, the
// paper's generation algorithm (package core), the search-based optimizer
// (package optimize), or a seeded random stream (oracle.RandomTests). The
// zero value is unknown/unspecified.
type Origin string

// Test origins.
const (
	OriginPaper     Origin = "paper"
	OriginGenerated Origin = "generated"
	OriginOptimized Origin = "optimized"
	OriginRandom    Origin = "random"
)

// Provenance records how a generated or optimized test was produced, in
// enough detail to reproduce it bit-for-bit: the rng seed and evaluation
// budget of the optimizer run, the test it started from, and a hash of the
// accepted move sequence that led from the seed to this test.
type Provenance struct {
	// Seed is the rng seed the whole run derives from.
	Seed int64 `json:"seed,omitempty"`
	// Budget is the candidate-evaluation budget of the optimizer run.
	Budget int `json:"budget,omitempty"`
	// SeedTest names the test the optimizer started from.
	SeedTest string `json:"seed_test,omitempty"`
	// SeedLength is the length of that seed test.
	SeedLength int `json:"seed_length,omitempty"`
	// MoveTrace is a hex digest of the accepted move sequence (the winner's
	// lineage) — two runs that took the same path hash identically.
	MoveTrace string `json:"move_trace,omitempty"`
}

// Test is a complete march test.
type Test struct {
	// Name is the conventional name, e.g. "March SL".
	Name string
	// Elems are the march elements in application order.
	Elems []Element
	// Source cites where the sequence was published (empty for generated
	// tests).
	Source string
	// Origin classifies the test's producer (paper / generated / optimized /
	// random); empty for tests that predate the provenance model.
	Origin Origin
	// Prov carries the reproduction metadata of generated/optimized tests;
	// nil for paper tests.
	Prov *Provenance
	// Reconstructed marks tests whose exact sequence is not reprinted in the
	// paper and was reconstructed for this reproduction (see DESIGN.md); the
	// complexity is exact, the sequence is a faithful stand-in.
	Reconstructed bool
}

// New builds a test from elements.
func New(name string, elems ...Element) Test {
	return Test{Name: name, Elems: elems}
}

// Length returns the number of read/write operations applied per memory
// cell; a test of Length L has complexity L·n on an n-cell memory (the
// "O(n)" column of Table 1). Wait operations are excluded, following the
// convention that delay phases are reported separately (March G is "23n +
// 2D", not "25n").
func (t Test) Length() int {
	total := 0
	for _, e := range t.Elems {
		for _, op := range e.Ops {
			if op.Kind != fp.OpWait {
				total++
			}
		}
	}
	return total
}

// Delays returns the number of wait operations in the test (the "D" part of
// complexities like "23n + 2D").
func (t Test) Delays() int {
	total := 0
	for _, e := range t.Elems {
		for _, op := range e.Ops {
			if op.Kind == fp.OpWait {
				total++
			}
		}
	}
	return total
}

// Complexity renders the conventional complexity string, e.g. "37n", with
// delay phases appended when present ("23n+2D").
func (t Test) Complexity() string {
	if d := t.Delays(); d > 0 {
		return fmt.Sprintf("%dn+%dD", t.Length(), d)
	}
	return fmt.Sprintf("%dn", t.Length())
}

// String renders the full test in conventional notation, elements separated
// by a space: "⇕(w0) ⇑(r0,w1) ⇓(r1,w0)".
func (t Test) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// ASCII renders the full test with ASCII order markers.
func (t Test) ASCII() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.ASCII()
	}
	return strings.Join(parts, " ")
}

// Validate checks structural well-formedness: at least one element, no empty
// element, and only write/read/wait operations with binary read expectations.
func (t Test) Validate() error {
	if len(t.Elems) == 0 {
		return fmt.Errorf("march: test %q has no elements", t.Name)
	}
	for i, e := range t.Elems {
		if len(e.Ops) == 0 {
			return fmt.Errorf("march: test %q element %d is empty", t.Name, i)
		}
		if e.Order > Down {
			return fmt.Errorf("march: test %q element %d has invalid order", t.Name, i)
		}
		for j, op := range e.Ops {
			switch op.Kind {
			case fp.OpWrite:
				if !op.Data.IsBinary() {
					return fmt.Errorf("march: test %q element %d op %d: write without a value", t.Name, i, j)
				}
			case fp.OpRead:
				if !op.Data.IsBinary() {
					return fmt.Errorf("march: test %q element %d op %d: read without an expected value", t.Name, i, j)
				}
			case fp.OpWait:
				// allowed
			default:
				return fmt.Errorf("march: test %q element %d op %d: invalid operation", t.Name, i, j)
			}
		}
	}
	return nil
}

// CheckConsistency verifies that the test is self-consistent on a fault-free
// memory: every read expectation matches the value the preceding operations
// leave in each cell. Because a march element applies the same operation
// sequence to every cell, the fault-free value of each cell evolves
// identically and can be tracked with a single symbolic value.
func (t Test) CheckConsistency() error {
	if err := t.Validate(); err != nil {
		return err
	}
	v := fp.VX // memory content unknown before the first write
	for i, e := range t.Elems {
		for j, op := range e.Ops {
			switch op.Kind {
			case fp.OpWrite:
				v = op.Data
			case fp.OpRead:
				if v == fp.VX {
					return fmt.Errorf("march: test %q element %d op %d reads uninitialized memory", t.Name, i, j)
				}
				if op.Data != v {
					return fmt.Errorf("march: test %q element %d op %d expects %s but fault-free memory holds %s",
						t.Name, i, j, op.Data, v)
				}
			case fp.OpWait:
				// wait does not change fault-free contents
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the test, safe to mutate independently.
func (t Test) Clone() Test {
	out := t
	out.Elems = make([]Element, len(t.Elems))
	for i, e := range t.Elems {
		out.Elems[i] = Element{Order: e.Order, Ops: append([]fp.Op(nil), e.Ops...)}
	}
	if t.Prov != nil {
		p := *t.Prov
		out.Prov = &p
	}
	return out
}

// Equal reports whether two tests have the same element sequence (names and
// provenance are ignored).
func (t Test) Equal(u Test) bool {
	if len(t.Elems) != len(u.Elems) {
		return false
	}
	for i := range t.Elems {
		a, b := t.Elems[i], u.Elems[i]
		if a.Order != b.Order || len(a.Ops) != len(b.Ops) {
			return false
		}
		for j := range a.Ops {
			if a.Ops[j] != b.Ops[j] {
				return false
			}
		}
	}
	return true
}
