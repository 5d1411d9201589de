package march

import (
	"testing"
	"testing/quick"

	"marchgen/internal/fp"
)

func TestAddrOrderString(t *testing.T) {
	cases := []struct {
		o          AddrOrder
		uni, ascii string
	}{
		{Any, "⇕", "c"},
		{Up, "⇑", "^"},
		{Down, "⇓", "v"},
	}
	for _, c := range cases {
		if c.o.String() != c.uni {
			t.Errorf("%v.String() = %q, want %q", c.o, c.o.String(), c.uni)
		}
		if c.o.ASCII() != c.ascii {
			t.Errorf("%v.ASCII() = %q, want %q", c.o, c.o.ASCII(), c.ascii)
		}
	}
}

func TestAddresses(t *testing.T) {
	if got := Up.Addresses(4); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Errorf("Up.Addresses(4) = %v", got)
	}
	if got := Down.Addresses(4); !equalInts(got, []int{3, 2, 1, 0}) {
		t.Errorf("Down.Addresses(4) = %v", got)
	}
	if got := Any.Addresses(3); !equalInts(got, []int{0, 1, 2}) {
		t.Errorf("Any.Addresses(3) = %v", got)
	}
	if got := Up.Addresses(0); len(got) != 0 {
		t.Errorf("Up.Addresses(0) = %v", got)
	}
}

// Property: Down is the reverse of Up for any size.
func TestAddressesReverseQuick(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%32) + 1
		up := Up.Addresses(size)
		down := Down.Addresses(size)
		for i := range up {
			if up[i] != down[size-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderCombinations(t *testing.T) {
	in := []AddrOrder{Any, Down, Any}
	got := OrderCombinations(in)
	want := [][]AddrOrder{
		{Up, Down, Up},
		{Down, Down, Up},
		{Up, Down, Down},
		{Down, Down, Down},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d combinations, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combination %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	if in[0] != Any || in[2] != Any {
		t.Fatalf("input modified: %v", in)
	}
	if got := OrderCombinations([]AddrOrder{Up}); len(got) != 1 || got[0][0] != Up {
		t.Fatalf("no ⇕ element: got %v, want the single concrete assignment", got)
	}
}

func TestLengthAndComplexity(t *testing.T) {
	m := MustParse("x", "c(w0) ^(r0,w1) v(r1,w0)")
	if m.Length() != 5 {
		t.Errorf("Length = %d, want 5", m.Length())
	}
	if m.Complexity() != "5n" {
		t.Errorf("Complexity = %q, want 5n", m.Complexity())
	}
}

func TestStringRendering(t *testing.T) {
	m := MustParse("x", "c(w0) ^(r0,w1) v(r1,w0)")
	if got, want := m.String(), "⇕(w0) ⇑(r0,w1) ⇓(r1,w0)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := m.ASCII(), "c(w0) ^(r0,w1) v(r1,w0)"; got != want {
		t.Errorf("ASCII = %q, want %q", got, want)
	}
}

func TestValidate(t *testing.T) {
	if err := (Test{Name: "empty"}).Validate(); err == nil {
		t.Error("empty test must fail validation")
	}
	if err := New("e", Element{Order: Up}).Validate(); err == nil {
		t.Error("empty element must fail validation")
	}
	bad := New("badorder", Element{Order: AddrOrder(9), Ops: []fp.Op{fp.W0}})
	if err := bad.Validate(); err == nil {
		t.Error("invalid order must fail validation")
	}
	noval := New("nw", NewElement(Up, fp.Op{Kind: fp.OpWrite, Data: fp.VX}))
	if err := noval.Validate(); err == nil {
		t.Error("write without a value must fail validation")
	}
	nord := New("nr", NewElement(Up, fp.W0), NewElement(Up, fp.RX))
	if err := nord.Validate(); err == nil {
		t.Error("read without an expectation must fail validation")
	}
	zero := New("z", NewElement(Up, fp.Op{}))
	if err := zero.Validate(); err == nil {
		t.Error("zero op must fail validation")
	}
	withWait := New("w", NewElement(Up, fp.W0), NewElement(Any, fp.Wait), NewElement(Up, fp.R0))
	if err := withWait.Validate(); err != nil {
		t.Errorf("wait op should validate: %v", err)
	}
}

func TestCheckConsistency(t *testing.T) {
	good := MustParse("g", "c(w0) ^(r0,w1) v(r1,w0) c(r0)")
	if err := good.CheckConsistency(); err != nil {
		t.Errorf("consistent test rejected: %v", err)
	}
	readFirst := MustParse("rf", "c(r0,w0)")
	if err := readFirst.CheckConsistency(); err == nil {
		t.Error("read of uninitialized memory must be rejected")
	}
	wrongExpect := MustParse("we", "c(w0) ^(r1,w0)")
	if err := wrongExpect.CheckConsistency(); err == nil {
		t.Error("wrong read expectation must be rejected")
	}
	withWait := MustParse("dw", "c(w1) c(t) c(r1)")
	if err := withWait.CheckConsistency(); err != nil {
		t.Errorf("wait must not disturb fault-free contents: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := MustParse("x", "c(w0) ^(r0,w1)")
	c := m.Clone()
	c.Elems[1].Ops[0] = fp.W1
	if m.Elems[1].Ops[0] != fp.R0 {
		t.Error("Clone shares operation storage with the original")
	}
	c.Elems[0].Order = Down
	if m.Elems[0].Order != Any {
		t.Error("Clone shares element storage with the original")
	}
}

func TestEqual(t *testing.T) {
	a := MustParse("a", "c(w0) ^(r0,w1)")
	b := MustParse("b", "c(w0) ^(r0,w1)")
	if !a.Equal(b) {
		t.Error("identical sequences must compare equal regardless of name")
	}
	c := MustParse("c", "c(w0) ^(r0,w0)")
	if a.Equal(c) {
		t.Error("different ops must not compare equal")
	}
	d := MustParse("d", "c(w0) v(r0,w1)")
	if a.Equal(d) {
		t.Error("different orders must not compare equal")
	}
	e := MustParse("e", "c(w0)")
	if a.Equal(e) {
		t.Error("different element counts must not compare equal")
	}
	f := MustParse("f", "c(w0) ^(r0,w1,r1)")
	if a.Equal(f) {
		t.Error("different op counts must not compare equal")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
