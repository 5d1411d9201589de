package oracle

import (
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/march"
	"marchgen/internal/word"
)

// This file is the independent word-oriented reference used to cross-check
// internal/word. Where word.go keeps each word as a []fp.Value slice and
// mutates it operation by operation, the reference packs every word into a
// pair of uint64 masks (good/faulty) and derives each step's next state from
// an explicit pre-state snapshot, so indexing, aliasing and
// order-of-evaluation bugs in either implementation surface as verdict
// divergences rather than cancelling out.

// wordMach is the mask-based good/faulty pair: bit i of word w is
// (mem[w] >> i) & 1.
type wordMach struct {
	width int
	good  []uint64
	fault []uint64
}

func newWordMach(words, width int) *wordMach {
	return &wordMach{width: width, good: make([]uint64, words), fault: make([]uint64, words)}
}

func maskValue(m uint64, bit int) fp.Value {
	return fp.ValueOf(uint8(m>>bit) & 1)
}

func setBit(m uint64, bit int, v fp.Value) uint64 {
	if v == fp.V1 {
		return m | 1<<bit
	}
	return m &^ (1 << bit)
}

// bgMask packs the word the background writes for march data d.
func bgMask(bg word.Background, d fp.Value) uint64 {
	var m uint64
	for i := range bg {
		if bg.Bit(i, d) == fp.V1 {
			m |= 1 << i
		}
	}
	return m
}

// settle applies the state-condition fault (CFst) to one word.
func (m *wordMach) settle(f word.Fault, w int) {
	if f.FP.Trigger != fp.TrigState {
		return
	}
	if f.FP.MatchesState(maskValue(m.fault[w], f.AggBit), maskValue(m.fault[w], f.VicBit)) {
		m.fault[w] = setBit(m.fault[w], f.VicBit, f.FP.F)
	}
}

// write applies a word-wide write of march data d under the background,
// evaluating both fault trigger sides against the pre-write snapshot.
func (m *wordMach) write(f word.Fault, bg word.Background, w int, d fp.Value) {
	pre := m.fault[w]
	preAgg, preVic := maskValue(pre, f.AggBit), maskValue(pre, f.VicBit)
	nm := bgMask(bg, d)
	mask := uint64(1)<<m.width - 1
	m.good[w] = nm & mask
	m.fault[w] = nm & mask
	if f.FP.MatchesOp(fp.W(bg.Bit(f.AggBit, d)), fp.RoleAggressor, preAgg, preVic) {
		m.fault[w] = setBit(m.fault[w], f.VicBit, f.FP.F)
	}
	if f.FP.MatchesOp(fp.W(bg.Bit(f.VicBit, d)), fp.RoleVictim, preAgg, preVic) {
		m.fault[w] = setBit(m.fault[w], f.VicBit, f.FP.F)
	}
	m.settle(f, w)
}

// read applies a word-wide read, returning whether the word-level compare
// against the good machine mismatches.
func (m *wordMach) read(f word.Fault, w int) bool {
	pre := m.fault[w]
	preAgg, preVic := maskValue(pre, f.AggBit), maskValue(pre, f.VicBit)
	mismatch := false
	if f.FP.MatchesOp(fp.R(preVic), fp.RoleVictim, preAgg, preVic) && f.FP.R.IsBinary() {
		if f.FP.R != maskValue(m.good[w], f.VicBit) {
			mismatch = true
		}
		m.fault[w] = setBit(m.fault[w], f.VicBit, f.FP.F)
	} else if f.FP.Trigger == fp.TrigOp && f.FP.OpRole == fp.RoleAggressor && f.FP.Op.Kind == fp.OpRead &&
		f.FP.MatchesOp(fp.R(preAgg), fp.RoleAggressor, preAgg, preVic) {
		m.fault[w] = setBit(m.fault[w], f.VicBit, f.FP.F)
	}
	if m.fault[w] != m.good[w] {
		mismatch = true
	}
	m.settle(f, w)
	return mismatch
}

// runWordRef applies the march under one background with every bit starting
// at init, reporting whether any read detects the fault.
func runWordRef(t march.Test, f word.Fault, bg word.Background, words int, init fp.Value) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	width := len(bg)
	m := newWordMach(words, width)
	var initMask uint64
	if init == fp.V1 {
		initMask = uint64(1)<<width - 1
	}
	for w := range m.good {
		m.good[w] = initMask
		m.fault[w] = initMask
		m.settle(f, w)
	}
	for _, e := range t.Elems {
		for _, w := range e.Order.Addresses(words) {
			for _, op := range e.Ops {
				switch op.Kind {
				case fp.OpWrite:
					m.write(f, bg, w, op.Data)
				case fp.OpRead:
					if m.read(f, w) {
						return true, nil
					}
				}
			}
		}
	}
	return false, nil
}

// WordDetects is the reference verdict for a word-oriented fault: detected
// iff for both uniform initial values some background detects it.
func WordDetects(t march.Test, f word.Fault, bgs []word.Background, cfg word.Config) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	words, width := wordDims(cfg)
	if f.AggBit >= width || f.VicBit >= width {
		return false, fmt.Errorf("oracle: fault bits (%d,%d) exceed width %d", f.AggBit, f.VicBit, width)
	}
	for _, bg := range bgs {
		if len(bg) != width {
			return false, fmt.Errorf("oracle: background width %d, memory width %d", len(bg), width)
		}
	}
	for _, init := range []fp.Value{fp.V0, fp.V1} {
		detected := false
		for _, bg := range bgs {
			d, err := runWordRef(t, f, bg, words, init)
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

// WordDetectsTransparent is the reference verdict for the transparent mode:
// detected iff some representative content (background pattern) detects it.
func WordDetectsTransparent(t march.Test, f word.Fault, bgs []word.Background, cfg word.Config) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	words, width := wordDims(cfg)
	if f.AggBit >= width || f.VicBit >= width {
		return false, fmt.Errorf("oracle: fault bits (%d,%d) exceed width %d", f.AggBit, f.VicBit, width)
	}
	for _, bg := range bgs {
		if len(bg) != width {
			return false, fmt.Errorf("oracle: background width %d, memory width %d", len(bg), width)
		}
		d, err := runWordTransparentRef(t, f, bg, words)
		if err != nil {
			return false, err
		}
		if d {
			return true, nil
		}
	}
	return false, nil
}

// runWordTransparentRef runs the (already transformed) transparent test with
// the content initialized to the background pattern itself.
func runWordTransparentRef(t march.Test, f word.Fault, bg word.Background, words int) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	m := newWordMach(words, len(bg))
	content := bgMask(bg, fp.V0)
	for w := range m.good {
		m.good[w] = content
		m.fault[w] = content
		m.settle(f, w)
	}
	for _, e := range t.Elems {
		for _, w := range e.Order.Addresses(words) {
			for _, op := range e.Ops {
				switch op.Kind {
				case fp.OpWrite:
					m.write(f, bg, w, op.Data)
				case fp.OpRead:
					if m.read(f, w) {
						return true, nil
					}
				}
			}
		}
	}
	return false, nil
}

// wordDims is the reference memory's shape: two words, as in internal/word
// (a word-local fault sits identically in every word), of the configured
// width, 0 meaning 4.
func wordDims(cfg word.Config) (words, width int) {
	width = cfg.Width
	if width <= 0 {
		width = 4
	}
	return 2, width
}

// WordDiff records a verdict divergence between internal/word and the
// mask-based reference.
type WordDiff struct {
	Fault  word.Fault
	Word   bool // internal/word verdict
	Ref    bool // reference verdict
	Transp bool // divergence on the transparent path
}

// String renders the divergence.
func (d WordDiff) String() string {
	mode := "word"
	if d.Transp {
		mode = "transparent"
	}
	return fmt.Sprintf("%s [%s]: internal/word=%v reference=%v", d.Fault.ID(), mode, d.Word, d.Ref)
}

// CrossCheckWord runs both word implementations over every fault and returns
// the divergences (empty means agreement).
func CrossCheckWord(t march.Test, faults []word.Fault, bgs []word.Background, cfg word.Config) ([]WordDiff, error) {
	var diffs []WordDiff
	for _, f := range faults {
		got, err := word.Detects(t, f, bgs, cfg)
		if err != nil {
			return nil, err
		}
		want, err := WordDetects(t, f, bgs, cfg)
		if err != nil {
			return nil, err
		}
		if got != want {
			diffs = append(diffs, WordDiff{Fault: f, Word: got, Ref: want})
		}
	}
	return diffs, nil
}

// CrossCheckWordTransparent cross-checks the transparent path.
func CrossCheckWordTransparent(t march.Test, faults []word.Fault, bgs []word.Background, cfg word.Config) ([]WordDiff, error) {
	var diffs []WordDiff
	for _, f := range faults {
		got, err := word.DetectsTransparent(t, f, bgs, cfg)
		if err != nil {
			return nil, err
		}
		want, err := WordDetectsTransparent(t, f, bgs, cfg)
		if err != nil {
			return nil, err
		}
		if got != want {
			diffs = append(diffs, WordDiff{Fault: f, Word: got, Ref: want, Transp: true})
		}
	}
	return diffs, nil
}
