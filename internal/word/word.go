// Package word extends the bit-oriented march framework to word-oriented
// memories (n words of w bits). A word-oriented march test applies a
// bit-oriented march with a set of data backgrounds: "w0" writes the
// background pattern, "w1" its complement; reads expect accordingly.
//
// The package reproduces the classic word-oriented testing result: faults
// coupling two bits *inside* one word are sensitized only when the two bits
// receive different values, so a single data background (solid 0/1) misses
// them, while the standard set of log2(w)+1 backgrounds (solid, 0101...,
// 00110011..., ...) distinguishes every bit pair and restores the
// bit-oriented coverage.
package word

import (
	"fmt"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// Background is a data pattern of one word: Background[i] is the value
// "w0" writes into bit i ("w1" writes the complement).
type Background []fp.Value

// String renders the pattern LSB first, e.g. "0101".
func (b Background) String() string {
	var s strings.Builder
	for _, v := range b {
		s.WriteString(v.String())
	}
	return s.String()
}

// Validate checks the pattern is fully specified.
func (b Background) Validate() error {
	if len(b) == 0 {
		return fmt.Errorf("word: empty background")
	}
	for i, v := range b {
		if !v.IsBinary() {
			return fmt.Errorf("word: background bit %d not binary", i)
		}
	}
	return nil
}

// Bit returns the value written into bit i for march data d: the background
// bit for d = 0, its complement for d = 1.
func (b Background) Bit(i int, d fp.Value) fp.Value {
	if d == fp.V1 {
		return b[i].Not()
	}
	return b[i]
}

// Solid returns the all-zero background of the given width.
func Solid(width int) Background {
	b := make(Background, width)
	for i := range b {
		b[i] = fp.V0
	}
	return b
}

// Backgrounds returns the standard set for a w-bit word: the solid
// background plus one alternating background per address bit of the bit
// index (log2(w) of them, for power-of-two widths): 0101..., 00110011...,
// etc. Every pair of distinct bits differs in at least one background.
func Backgrounds(width int) ([]Background, error) {
	if width < 1 {
		return nil, fmt.Errorf("word: width %d invalid", width)
	}
	out := []Background{Solid(width)}
	for stride := 1; stride < width; stride *= 2 {
		b := make(Background, width)
		for i := range b {
			b[i] = fp.ValueOf(uint8(i/stride) & 1)
		}
		out = append(out, b)
	}
	return out, nil
}

// Fault is an intra-word fault: a two-cell fault primitive bound to two
// bits of the same word. Every word of the array carries the fault (it is
// a cell-array design defect, e.g. adjacent columns bridged within the word
// line), so the word index is not part of the model.
type Fault struct {
	FP     fp.FP
	AggBit int
	VicBit int
}

// ID returns "CFds<0w1;0/1/->@b0>b2".
func (f Fault) ID() string {
	return fmt.Sprintf("%s@b%d>b%d", f.FP.ID(), f.AggBit, f.VicBit)
}

// Validate checks the fault shape.
func (f Fault) Validate() error {
	if err := f.FP.Validate(); err != nil {
		return err
	}
	if f.FP.Cells != 2 {
		return fmt.Errorf("word: intra-word fault needs a two-cell primitive, got %v", f.FP)
	}
	if f.FP.IsDynamic() {
		return fmt.Errorf("word: dynamic intra-word faults not modeled")
	}
	if f.AggBit == f.VicBit || f.AggBit < 0 || f.VicBit < 0 {
		return fmt.Errorf("word: invalid bit pair (%d,%d)", f.AggBit, f.VicBit)
	}
	return nil
}

// IntraWordFaults enumerates every static two-cell fault primitive over
// every ordered bit pair of a w-bit word.
func IntraWordFaults(width int) []Fault {
	var out []Fault
	for _, p := range fp.AllTwoCellStatic() {
		for a := 0; a < width; a++ {
			for v := 0; v < width; v++ {
				if a == v {
					continue
				}
				out = append(out, Fault{FP: p, AggBit: a, VicBit: v})
			}
		}
	}
	return out
}

// MarchTestable reports whether an intra-word fault is testable by
// word-wide march operations at all. Transition-write disturb couplings
// (CFds whose aggressor bit transitions under a write) are not: the fault
// effect equals the value the same word write puts into the victim bit
// whenever the firing pre-state is reachable — to see the corruption the
// victim would have to be rewritten to its old value while the aggressor
// changes, and word-wide writes move both bits between the background and
// its complement together. Non-transition write disturbs escape the
// argument (two consecutive identical word writes keep the victim value
// while re-applying the aggressor write) and are testable. Detecting the
// transition-write disturbs requires partial writes (bit-write enables) —
// a measured finding of this package, pinned in its tests and discussed in
// EXPERIMENTS.md.
func MarchTestable(f Fault) bool {
	return !(f.FP.Class == fp.CFds &&
		f.FP.Op.Kind == fp.OpWrite &&
		f.FP.AInit.IsBinary() &&
		f.FP.Op.Data != f.FP.AInit)
}

// TestableIntraWordFaults returns the intra-word faults word-wide march
// operations can detect (see MarchTestable).
func TestableIntraWordFaults(width int) []Fault {
	var out []Fault
	for _, f := range IntraWordFaults(width) {
		if MarchTestable(f) {
			out = append(out, f)
		}
	}
	return out
}

// memWords is the number of words the model simulates. Intra-word faults
// are word-local and sit identically in every word, so two words exercise
// the address loop and more cannot change a verdict.
const memWords = 2

// Config controls the word-level simulation.
type Config struct {
	// Width is the word width; 0 means 4.
	Width int
}

func (c Config) width() int {
	if c.Width <= 0 {
		return 4
	}
	return c.Width
}

// memory is the faulty/good pair of word arrays.
type wmemory struct {
	good, faulty [][]fp.Value // [word][bit]
}

func newWMemory(width int) *wmemory {
	m := &wmemory{}
	for w := 0; w < memWords; w++ {
		m.good = append(m.good, make([]fp.Value, width))
		m.faulty = append(m.faulty, make([]fp.Value, width))
	}
	return m
}

// load fills every word of both memories with the content pattern and lets
// state faults settle on it.
func (m *wmemory) load(f Fault, content Background) {
	for w := range m.good {
		copy(m.good[w], content)
		copy(m.faulty[w], content)
		m.settle(f, w)
	}
}

// applyWrite writes march data d under background bg to word w, applying
// the intra-word fault semantics bit by bit: bit writes happen "at once",
// with triggers evaluated against the pre-write state.
func (m *wmemory) applyWrite(f Fault, bg Background, w int, d fp.Value) {
	width := len(bg)
	pre := append([]fp.Value(nil), m.faulty[w]...)
	for i := 0; i < width; i++ {
		val := bg.Bit(i, d)
		m.good[w][i] = val
		m.faulty[w][i] = val
	}
	// Aggressor-side trigger: the write applied to the aggressor bit, with
	// pre-write states.
	aggOp := fp.W(bg.Bit(f.AggBit, d))
	if f.FP.MatchesOp(aggOp, fp.RoleAggressor, pre[f.AggBit], pre[f.VicBit]) {
		m.faulty[w][f.VicBit] = f.FP.F
	}
	// Victim-side trigger (CFtr/CFwd): the write applied to the victim bit
	// while the aggressor held its pre-state.
	vicOp := fp.W(bg.Bit(f.VicBit, d))
	if f.FP.MatchesOp(vicOp, fp.RoleVictim, pre[f.AggBit], pre[f.VicBit]) {
		m.faulty[w][f.VicBit] = f.FP.F
	}
	// State condition (CFst) settles on the new state.
	m.settle(f, w)
}

// applyRead reads word w, returning whether the faulty word differs from
// the good one on any bit (word-level comparison, as a tester does).
func (m *wmemory) applyRead(f Fault, w int) bool {
	// Victim-side read triggers (CFrd/CFdr/CFir).
	pre := m.faulty[w]
	mismatch := false
	if f.FP.MatchesOp(fp.R(pre[f.VicBit]), fp.RoleVictim, pre[f.AggBit], pre[f.VicBit]) && f.FP.R.IsBinary() {
		if f.FP.R != m.good[w][f.VicBit] {
			mismatch = true
		}
		m.faulty[w][f.VicBit] = f.FP.F
	} else if f.FP.Trigger == fp.TrigOp && f.FP.OpRole == fp.RoleAggressor && f.FP.Op.Kind == fp.OpRead &&
		f.FP.MatchesOp(fp.R(pre[f.AggBit]), fp.RoleAggressor, pre[f.AggBit], pre[f.VicBit]) {
		// Aggressor-side read disturb.
		m.faulty[w][f.VicBit] = f.FP.F
	}
	for i := range m.good[w] {
		if m.faulty[w][i] != m.good[w][i] {
			mismatch = true
		}
	}
	m.settle(f, w)
	return mismatch
}

func (m *wmemory) settle(f Fault, w int) {
	if f.FP.Trigger != fp.TrigState {
		return
	}
	if f.FP.MatchesState(m.faulty[w][f.AggBit], m.faulty[w][f.VicBit]) {
		m.faulty[w][f.VicBit] = f.FP.F
	}
}

// runMarch applies the bit-oriented march under background bg to a memory
// whose every word starts at the content pattern, and reports whether any
// read detects the fault.
func runMarch(t march.Test, f Fault, bg, content Background, cfg Config) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	m := newWMemory(cfg.width())
	m.load(f, content)
	for _, e := range t.Elems {
		for _, w := range e.Order.Addresses(memWords) {
			for _, op := range e.Ops {
				switch op.Kind {
				case fp.OpWrite:
					m.applyWrite(f, bg, w, op.Data)
				case fp.OpRead:
					if m.applyRead(f, w) {
						return true, nil
					}
				}
			}
		}
	}
	return false, nil
}

// checkInputs validates the fault and the background set against the memory
// width: the common precondition of Detects and DetectsTransparent.
func checkInputs(f Fault, bgs []Background, cfg Config) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.AggBit >= cfg.width() || f.VicBit >= cfg.width() {
		return fmt.Errorf("word: fault bits (%d,%d) exceed width %d", f.AggBit, f.VicBit, cfg.width())
	}
	for _, bg := range bgs {
		if err := bg.Validate(); err != nil {
			return err
		}
		if len(bg) != cfg.width() {
			return fmt.Errorf("word: background width %d, memory width %d", len(bg), cfg.width())
		}
	}
	return nil
}

// Detects reports whether applying the bit-oriented march test under every
// background in the set detects the intra-word fault, for both uniform
// initial values.
func Detects(t march.Test, f Fault, bgs []Background, cfg Config) (bool, error) {
	if err := checkInputs(f, bgs, cfg); err != nil {
		return false, err
	}
	for _, init := range []fp.Value{fp.V0, fp.V1} {
		content := make(Background, cfg.width())
		for i := range content {
			content[i] = init
		}
		detected := false
		for _, bg := range bgs {
			d, err := runMarch(t, f, bg, content, cfg)
			if err != nil {
				return false, err
			}
			if d {
				detected = true
				break
			}
		}
		if !detected {
			return false, nil
		}
	}
	return true, nil
}

// Coverage counts how many intra-word faults the test detects under the
// background set.
func Coverage(t march.Test, faults []Fault, bgs []Background, cfg Config) (detected int, err error) {
	for _, f := range faults {
		d, err := Detects(t, f, bgs, cfg)
		if err != nil {
			return detected, err
		}
		if d {
			detected++
		}
	}
	return detected, nil
}
