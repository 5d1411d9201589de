package sim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// repairShapes reads the operation shapes of the generator's repair
// template library (the templateOps table of internal/core/repair.go)
// straight from its source, so the differential test always covers the
// library the generator actually extends candidates with. core imports sim,
// so the table cannot be imported here.
func repairShapes(t testing.TB) [][]fp.Op {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../core/repair.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var shapes [][]fp.Op
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "templateOps" {
			return true
		}
		for _, elt := range spec.Values[0].(*ast.CompositeLit).Elts {
			var ops []fp.Op
			for _, s := range elt.(*ast.CompositeLit).Elts {
				text, err := strconv.Unquote(s.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				op, err := fp.ParseOp(text)
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, op)
			}
			shapes = append(shapes, ops)
		}
		return false
	})
	if len(shapes) < 30 {
		t.Fatalf("found %d template shapes in core/repair.go, want the whole library", len(shapes))
	}
	return shapes
}

// extensionElems is the repair template library: every shape in both
// address orders, plus, for a shape whose first access is a read, the
// variant behind the write that sets that read's expectation.
func extensionElems(t testing.TB) []march.Element {
	var out []march.Element
	add := func(ops []fp.Op) {
		for _, order := range []march.AddrOrder{march.Up, march.Down} {
			out = append(out, march.NewElement(order, ops...))
		}
	}
	for _, ops := range repairShapes(t) {
		add(ops)
		if ops[0].Kind == fp.OpRead && ops[0].Data.IsBinary() {
			add(append([]fp.Op{fp.W(ops[0].Data)}, ops...))
		}
	}
	return out
}

// libraryPrefixes is every library test truncated at every element
// boundary (the empty test included), deduplicated by notation.
func libraryPrefixes() []march.Test {
	seen := map[string]bool{}
	var out []march.Test
	for _, mt := range march.Lib() {
		for n := 0; n <= len(mt.Elems); n++ {
			p := mt.Clone()
			p.Elems = p.Elems[:n]
			if key := p.ASCII(); !seen[key] {
				seen[key] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// checkExtensions asks one batch for every fault and compares each answer
// with the verdict of the whole extended test compiled from scratch.
func checkExtensions(t *testing.T, prefix march.Test, elems []march.Element, faults []linked.Fault, cfg Config) {
	t.Helper()
	ps, err := NewSchedule(prefix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := ps.Extend(elems)
	full := make([]*Schedule, len(elems))
	for i, e := range elems {
		whole := prefix.Clone()
		whole.Elems = append(whole.Elems, e)
		if full[i], err = NewSchedule(whole, cfg); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]bool, len(elems))
	for _, f := range faults {
		if err := batch.Detects(f, got); err != nil {
			t.Fatalf("%q + batch vs %s: %v", prefix.ASCII(), f.ID(), err)
		}
		for i := range elems {
			want, _, err := full[i].DetectsFault(f)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%q + %s vs %s (size=%d exhaustive=%v scalarOnly=%v): batch detected=%v, whole test detected=%v",
					prefix.ASCII(), elems[i].ASCII(), f.ID(), cfg.size(), cfg.ExhaustiveOrders, cfg.scalarOnly, got[i], want)
			}
		}
	}
}

// TestExtendMatchesFullSchedule is the differential test of the extension
// query: for every library prefix and every repair template element, under
// the search and the exhaustive configuration, with the lane engine on and
// off, the batch answer must be exactly the verdict of the extended test
// compiled and simulated from scratch.
//
// The fault dimension (List #1, List #2, the simple static and the dynamic
// faults) is interleaved across prefixes so the whole product stays within
// a unit-test budget: prefix i checks every stride-th fault starting at
// i mod stride, so every fault meets every element under about
// prefixes/stride different prefixes. The scalar hook uses a wider stride:
// it sends every fault down the fallback, which asks the whole extended
// schedule itself, at many times the lane cost.
func TestExtendMatchesFullSchedule(t *testing.T) {
	seen := map[string]bool{}
	var faults []linked.Fault
	for _, list := range [][]linked.Fault{faultlist.List2(), faultlist.SimpleStatic(), faultlist.Dynamic(), faultlist.List1()} {
		for _, f := range list {
			if id := f.ID(); !seen[id] {
				seen[id] = true
				faults = append(faults, f)
			}
		}
	}
	elems := extensionElems(t)
	prefixes := libraryPrefixes()
	for _, cfg := range []Config{{Size: 4}, DefaultConfig()} {
		for _, scalar := range []bool{false, true} {
			cfg := cfg
			cfg.scalarOnly = scalar
			stride := 8
			if scalar {
				stride = 48
			}
			t.Run(fmt.Sprintf("exhaustive=%v/scalarOnly=%v", cfg.ExhaustiveOrders, scalar), func(t *testing.T) {
				t.Parallel()
				for i, prefix := range prefixes {
					var fs []linked.Fault
					for j := i % stride; j < len(faults); j += stride {
						fs = append(fs, faults[j])
					}
					checkExtensions(t, prefix, elems, fs, cfg)
				}
			})
		}
	}
}

// TestExtendFallbacks pins the answers of the extension kinds the lane path
// never takes: ⇕ elements (one per order under the exhaustive
// configuration), non-binary writes, and an erroring extension — a ⇕
// element past the exhaustive expansion cap fails exactly like compiling
// the whole test does.
func TestExtendFallbacks(t *testing.T) {
	elems := []march.Element{
		march.NewElement(march.Any, fp.R0, fp.W1),
		march.NewElement(march.Up, fp.R0, fp.W(fp.VX)),
		march.NewElement(march.Down, fp.R1, fp.W0, fp.R0),
	}
	faults := append(faultlist.List2(), faultlist.Dynamic()...)
	for _, cfg := range []Config{{Size: 4}, DefaultConfig()} {
		for _, prefix := range []march.Test{march.MATSPlus, march.MarchCMinus, {Name: "empty"}} {
			checkExtensions(t, prefix, elems, faults, cfg)
		}
	}

	capped := Config{Size: 4, ExhaustiveOrders: true, MaxAnyElements: 1}
	ps, err := NewSchedule(march.Test{Elems: []march.Element{march.NewElement(march.Any, fp.W0)}}, capped)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]bool, 2)
	err = ps.Extend([]march.Element{march.NewElement(march.Up, fp.R0), march.NewElement(march.Any, fp.R0)}).Detects(faultlist.List2()[0], got)
	if err == nil {
		t.Fatal("a ⇕ extension past MaxAnyElements must fail like NewSchedule does")
	}
}

// FuzzExtendVsFull fuzzes the extension query against the whole extended
// test: a fuzz-built fault (eligible or fallback), a library prefix of
// fuzz-chosen length, and a fuzz-built element must give exactly the
// verdict of the extended test compiled from scratch.
func FuzzExtendVsFull(f *testing.F) {
	f.Add([]byte{0, 0}, uint8(0), []byte{2, 1})
	f.Add([]byte{2, 1, 1, 2, 1, 0, 0, 4, 1, 0}, uint8(1), []byte{0, 3, 1, 2})
	f.Add([]byte{1, 1, 0, 0, 1, 2, 0, 3, 5, 0}, uint8(7), []byte{5, 1, 0, 3, 2})
	f.Add([]byte{2, 0, 0, 2, 1, 1, 2, 5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 1}, uint8(3), []byte{1, 2, 2, 3, 0, 1})
	f.Add([]byte{1, 0, 1, 1, 2, 3, 6, 2}, uint8(42), []byte{6, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte, pick uint8, elemData []byte) {
		fault := fuzzFault(data)
		mt := fuzzTests[int(pick)%len(fuzzTests)]
		prefix := mt.Clone()
		prefix.Elems = prefix.Elems[:int(pick/4)%(len(mt.Elems)+1)]
		cfg := Config{Size: 4 + int(pick/16)%2, ExhaustiveOrders: pick/8%2 == 0}
		elem := fuzzElement(elemData)

		ps, err := NewSchedule(prefix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]bool, 1)
		gotErr := ps.Extend([]march.Element{elem}).Detects(fault, got)
		whole := prefix.Clone()
		whole.Elems = append(whole.Elems, elem)
		want, _, wantErr := DetectsFault(whole, fault, cfg)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s + %s vs %s: batch err=%v whole err=%v", prefix.ASCII(), elem.ASCII(), fault.ID(), gotErr, wantErr)
		}
		if gotErr == nil && got[0] != want {
			t.Fatalf("%s + %s vs %s: batch detected=%v whole detected=%v", prefix.ASCII(), elem.ASCII(), fault.ID(), got[0], want)
		}
	})
}

// fuzzElement decodes a march element from fuzz bytes: the first byte picks
// the order, every further byte one operation (up to eight).
func fuzzElement(data []byte) march.Element {
	if len(data) == 0 {
		data = []byte{0}
	}
	orders := []march.AddrOrder{march.Up, march.Down, march.Any}
	ops := []fp.Op{fp.R0, fp.R1, fp.W0, fp.W1, fp.RX, fp.W(fp.VX), fp.Wait}
	e := march.Element{Order: orders[int(data[0])%len(orders)]}
	for _, b := range data[1:] {
		if len(e.Ops) == 8 {
			break
		}
		e.Ops = append(e.Ops, ops[int(b)%len(ops)])
	}
	if len(e.Ops) == 0 {
		e.Ops = []fp.Op{fp.R0}
	}
	return e
}
