package sim

import (
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// The prefix-extension query.
//
// The generator grows a candidate test one element at a time and, before
// each step, asks for every fault still missed and every candidate element
// e whether cand+e detects it. Compiling and simulating cand+e from scratch
// re-simulates the unchanged prefix cand once per (e, fault) pair. For a
// lane-eligible fault the answer only needs the prefix simulated once:
//
//   - walk the prefix's order-choice trie once with the lane kernel and keep,
//     for every order combination some lane reaches undetected, the lane
//     state at its end (k cell words plus the detect mask);
//   - run each e from those states only. cand+e's trie is cand's trie with
//     e's segment hung under every leaf, and a pruned (all-detected) prefix
//     leaf stays detected whatever follows, so "e leaves some lane undetected
//     at some kept state" is exactly "cand+e misses the fault".
//
// Everything else — faults planLanes sends to the scalar engine, ⇕
// candidate elements (they would fork every leaf) and elements with
// non-binary writes (outside the lane encoding) — takes the fallback:
// cand+e is compiled lazily, once per batch, and asked directly, so the
// scalar schedule stays the reference.

// Extensions is a batch of one-element extensions of a compiled prefix:
// Detects answers, for one fault, whether prefix+e detects it for every
// element e of the batch. Build it with Schedule.Extend. An Extensions is
// not safe for concurrent use.
type Extensions struct {
	prefix *Schedule
	elems  []march.Element
	// steps[i] is elems[i] compiled as the element that follows the prefix,
	// or nil when elems[i] can only be answered by the fallback.
	steps [][]opStep
	// full[i] is the lazily compiled schedule of prefix+elems[i] the
	// fallback asks; fullErr[i] is its compile error.
	full    []*Schedule
	fullErr []error
	// leaves is the per-fault scratch of prefix end states.
	leaves []laneLeaf
}

// laneLeaf is the lane state at the end of one order combination of the
// prefix that some lane reaches undetected.
type laneLeaf struct {
	vs     [maxLaneCells]uint64
	detect uint64
}

// Extend prepares the batch of extensions prefix+e for every element of
// elems. Every answer Detects gives is exactly the verdict of
// NewSchedule(prefix+e, cfg).DetectsFault. The caller must not modify elems
// while the batch is in use.
func (s *Schedule) Extend(elems []march.Element) *Extensions {
	x := &Extensions{
		prefix:  s,
		elems:   elems,
		steps:   make([][]opStep, len(elems)),
		full:    make([]*Schedule, len(elems)),
		fullErr: make([]error, len(elems)),
	}
	// The good trace entering the appended element is the same under every
	// order combination and at every address: each whole element applies
	// its operation list once to every address, so after it a cell has been
	// written iff the element writes, and then holds the element's last
	// write datum. So the prefix's written/lastWrite state follows from the
	// prefix's operation lists alone, and e compiles once for all leaves.
	written := false
	var last fp.Value
	for _, e := range s.test.Elems {
		for _, op := range e.Ops {
			if op.Kind == fp.OpWrite {
				written, last = true, op.Data
			}
		}
	}
	w := make([]bool, s.size)
	lw := make([]fp.Value, s.size)
	for i, e := range elems {
		if e.Order == march.Any || !binaryWrites(e) {
			continue
		}
		for a := range w {
			w[a], lw[a] = written, last
		}
		x.steps[i] = compileElemSteps(e, e.Order, s.size, len(s.test.Elems), w, lw)
	}
	return x
}

// binaryWrites reports whether every write of the element carries a binary
// value, the lane encoding's precondition (Schedule.laneWrites).
func binaryWrites(e march.Element) bool {
	for _, op := range e.Ops {
		if op.Kind == fp.OpWrite && !op.Data.IsBinary() {
			return false
		}
	}
	return true
}

// Detects sets out[i] to whether prefix+elems[i] detects the fault in every
// scenario, for every element of the batch; out must have one entry per
// element. It fails when NewSchedule(prefix+e, cfg).DetectsFault would fail
// for some element; out is then incomplete.
func (x *Extensions) Detects(f linked.Fault, out []bool) error {
	s := x.prefix
	if err := validateBindings(f); err != nil {
		return err
	}
	m := s.getMachine()
	defer s.putMachine(m)
	lanes := canClassCache(f) && s.planLanes(m, f)
	if lanes {
		x.leaves = x.leaves[:0]
		s.walkLanes(m, func(_ int, vs *[maxLaneCells]uint64, detect uint64) bool {
			x.leaves = append(x.leaves, laneLeaf{vs: *vs, detect: detect})
			return true
		})
	}
	for i := range x.elems {
		if lanes && x.steps[i] != nil {
			out[i] = x.laneDetects(&m.plan, x.steps[i])
			continue
		}
		miss, err := x.fallback(i, f)
		if err != nil {
			return err
		}
		out[i] = !miss
	}
	return nil
}

// laneDetects runs one compiled element from every kept prefix end state
// and reports whether every lane detects at every one of them.
func (x *Extensions) laneDetects(p *lanePlan, steps []opStep) bool {
	for i := range x.leaves {
		l := &x.leaves[i]
		vs := l.vs
		if p.runSteps(steps, &vs, l.detect) != p.full {
			return false
		}
	}
	return true
}

// fallback answers element i by compiling prefix+elems[i] (once per batch)
// and asking it whether it misses the fault.
func (x *Extensions) fallback(i int, f linked.Fault) (bool, error) {
	if x.full[i] == nil && x.fullErr[i] == nil {
		t := x.prefix.test.Clone()
		t.Elems = append(t.Elems, x.elems[i])
		x.full[i], x.fullErr[i] = NewSchedule(t, x.prefix.cfg)
	}
	if x.fullErr[i] != nil {
		return false, x.fullErr[i]
	}
	return x.full[i].MissesFault(f)
}
