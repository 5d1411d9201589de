package sim

import (
	"fmt"
	"sync"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// The compiled-schedule layer.
//
// The operation stream a march test induces on a memory depends only on
// (test, address orders, memory size) — never on the fault being simulated.
// The exhaustive simulator, however, fans the same test out over hundreds of
// faults × placements × initial values × order combinations, and simulating
// each scenario from scratch would re-derive the order combinations, the
// address sequences and the fault-free machine behavior every time.
//
// A Schedule compiles all of that once per (test, config):
//
//   - the resolved ⇕ order combinations (orderCombinations),
//   - the op streams of all combinations, flattened to [(element, addr, op)]
//     steps and shared as a trie over the per-element order choices: two
//     combinations that agree on the orders of the first j elements share
//     one compiled prefix and — at run time — one simulation of it,
//   - per step, the fault-free ("good") value the addressed cell holds when
//     the step executes. A cell's fault-free value is its scenario initial
//     value until the stream's first write to it, and the last written value
//     afterwards — so the good machine never needs to be simulated again:
//     reads compare the faulty value against the cached trace.
//
// Machines are pooled (sync.Pool) across the Simulate/FullCoverage worker
// fan-out, so steady-state simulation does not allocate per fault.

// opStep is one operation of a compiled stream.
type opStep struct {
	// elem and opIdx locate the operation in the march test.
	elem  int
	opIdx int
	// addr is the concrete memory address the operation targets.
	addr int
	// op is the operation.
	op fp.Op
	// goodKnown reports that an earlier step of the stream wrote addr; good
	// is then the fault-free value of addr entering this step. When false
	// the cell still holds its scenario-dependent initial value (the fault
	// cell's Init, or 0 for bystanders) and good must be ignored.
	goodKnown bool
	good      fp.Value
}

// stream is the compiled operation stream of one concrete order combination.
type stream struct {
	orders []march.AddrOrder
	steps  []opStep
}

// segment is one node of the order-choice trie: the steps of one march
// element under one concrete address order, compiled for one prefix of order
// choices (the good-trace annotations depend on the prefix). Leaves carry
// the index of their order combination in the schedule's orderSets.
type segment struct {
	steps    []opStep
	children []int // segment indices of the next element's order choices
	leaf     int   // orderSets index when this is the last element, else -1
}

// Schedule is a compiled simulation schedule: every fault-independent
// artifact of simulating one march test under one configuration. Build it
// once with NewSchedule and share it across the whole fault fan-out; all
// methods are safe for concurrent use.
type Schedule struct {
	test      march.Test
	cfg       Config
	size      int
	orderSets [][]march.AddrOrder
	segs      []segment
	roots     []int     // segment indices of the first element's order choices
	pool      sync.Pool // *machine, sized for this schedule's memory
	// laneWrites reports that every write step of every segment carries a
	// binary value, a precondition of the one-bit-per-cell lane encoding
	// (lanes.go). Library tests always satisfy it; only hand-built tests
	// with don't-care writes force the scalar path.
	laneWrites bool
}

// NewSchedule compiles the simulation schedule of a march test under a
// configuration. It fails only where scenario enumeration would fail: when
// the exhaustive ⇕ expansion exceeds Config.MaxAnyElements.
func NewSchedule(t march.Test, cfg Config) (*Schedule, error) {
	orderSets, err := orderCombinations(t, cfg)
	if err != nil {
		return nil, err
	}
	size := cfg.size()
	s := &Schedule{test: t, cfg: cfg, size: size, orderSets: orderSets}
	s.compileTree()
	s.laneWrites = true
	for _, e := range t.Elems {
		s.laneWrites = s.laneWrites && binaryWrites(e)
	}
	s.pool.New = func() any { return newMachine(size) }
	return s, nil
}

// compileTree builds the segment trie. Sibling order within a ⇕ element is
// Up then Down; the leaf index is the bit pattern orderCombinations assigns
// to the path's choices, so leaves map 1:1 onto orderSets (bit j of the
// index is the j-th ⇕ element's choice). Note the trie's depth-first leaf
// order is NOT ascending leaf index — combination enumeration varies the
// FIRST ⇕ element fastest — which is why runTree tracks the minimum missed
// leaf index instead of stopping at the first miss.
func (s *Schedule) compileTree() {
	t := s.test
	exhaustive := s.cfg.ExhaustiveOrders && len(s.orderSets) > 1

	var build func(ei, anyPos, bits int, order march.AddrOrder, written []bool, lastWrite []fp.Value) int
	build = func(ei, anyPos, bits int, order march.AddrOrder, written []bool, lastWrite []fp.Value) int {
		w := append([]bool(nil), written...)
		lw := append([]fp.Value(nil), lastWrite...)
		seg := segment{steps: compileElemSteps(t.Elems[ei], order, s.size, ei, w, lw), leaf: -1}
		if ei == len(t.Elems)-1 {
			seg.leaf = bits
		} else {
			next := t.Elems[ei+1].Order
			nextAny := anyPos
			if next == march.Any {
				if exhaustive {
					nextAny++
					seg.children = append(seg.children, build(ei+1, nextAny, bits, march.Up, w, lw))
					seg.children = append(seg.children, build(ei+1, nextAny, bits|1<<anyPos, march.Down, w, lw))
				} else {
					seg.children = append(seg.children, build(ei+1, nextAny, bits, march.Up, w, lw))
				}
			} else {
				seg.children = append(seg.children, build(ei+1, nextAny, bits, next, w, lw))
			}
		}
		s.segs = append(s.segs, seg)
		return len(s.segs) - 1
	}

	if len(t.Elems) == 0 {
		return
	}
	written := make([]bool, s.size)
	lastWrite := make([]fp.Value, s.size)
	first := t.Elems[0].Order
	if first == march.Any {
		if exhaustive {
			s.roots = append(s.roots, build(0, 1, 0, march.Up, written, lastWrite))
			s.roots = append(s.roots, build(0, 1, 1, march.Down, written, lastWrite))
		} else {
			s.roots = append(s.roots, build(0, 1, 0, march.Up, written, lastWrite))
		}
	} else {
		s.roots = append(s.roots, build(0, 0, 0, first, written, lastWrite))
	}
}

// compileElemSteps flattens one element under one concrete order,
// annotating each step with the cached fault-free value of its target cell
// and updating the written/lastWrite prefix state in place. Any orders
// iterate upward, matching AddrOrder.Addresses.
func compileElemSteps(e march.Element, order march.AddrOrder, size, ei int, written []bool, lastWrite []fp.Value) []opStep {
	steps := make([]opStep, 0, size*len(e.Ops))
	for i := 0; i < size; i++ {
		addr := i
		if order == march.Down {
			addr = size - 1 - i
		}
		for oi, op := range e.Ops {
			steps = append(steps, opStep{
				elem: ei, opIdx: oi, addr: addr, op: op,
				goodKnown: written[addr], good: lastWrite[addr],
			})
			if op.Kind == fp.OpWrite {
				written[addr] = true
				lastWrite[addr] = op.Data
			}
		}
	}
	return steps
}

// compileStream flattens the test into the operation stream induced by one
// concrete order assignment (used by TraceScenario, which steps one linear
// stream rather than the trie).
func compileStream(t march.Test, orders []march.AddrOrder, size int) stream {
	n := 0
	for _, e := range t.Elems {
		n += size * len(e.Ops)
	}
	steps := make([]opStep, 0, n)
	written := make([]bool, size)
	lastWrite := make([]fp.Value, size)
	for ei, e := range t.Elems {
		steps = append(steps, compileElemSteps(e, orders[ei], size, ei, written, lastWrite)...)
	}
	return stream{orders: orders, steps: steps}
}

// Test returns the march test the schedule was compiled from.
func (s *Schedule) Test() march.Test { return s.test }

// Config returns the configuration the schedule was compiled under.
func (s *Schedule) Config() Config { return s.cfg }

// ScenarioCount returns the number of concrete scenarios the schedule
// enumerates for a fault: placements × initial values × order combinations.
func (s *Schedule) ScenarioCount(f linked.Fault) (int, error) {
	if f.Cells >= s.size {
		return 0, fmt.Errorf("sim: memory of %d cells cannot place a %d-cell fault with a bystander", s.size, f.Cells)
	}
	placements := 1
	for i := 0; i < f.Cells; i++ {
		placements *= s.size - i
	}
	return placements * (1 << f.Cells) * len(s.orderSets), nil
}

func (s *Schedule) getMachine() *machine  { return s.pool.Get().(*machine) }
func (s *Schedule) putMachine(m *machine) { s.pool.Put(m) }

// forEachPlacement enumerates the placements of k fault cells onto the
// schedule's memory in reference order (ForEachPlacement), failing when no
// cell would be left over for a bystander.
func (s *Schedule) forEachPlacement(k int, fn func(placement []int) bool) error {
	if k >= s.size {
		return fmt.Errorf("sim: memory of %d cells cannot place a %d-cell fault with a bystander", s.size, k)
	}
	ForEachPlacement(k, s.size, fn)
	return nil
}

// runBlock simulates every initial-value assignment of one placement, in
// reference order, over the order-combination trie. It reports the first
// miss as (miss, init bit pattern, orderSets index); needWitness is passed
// through to runTree.
func (s *Schedule) runBlock(m *machine, f linked.Fault, placement []int, init []fp.Value, needWitness bool) (bool, int, int) {
	k := len(placement)
	for bits := 0; bits < 1<<k; bits++ {
		for c := 0; c < k; c++ {
			init[c] = fp.ValueOf(uint8(bits>>c) & 1)
		}
		if miss, leaf := s.runTree(m, f, placement, init, needWitness); miss {
			return true, bits, leaf
		}
	}
	return false, 0, 0
}

// anyDynamic reports whether any bound primitive of the fault is dynamic.
func anyDynamic(f linked.Fault) bool {
	for i := range f.FPs {
		if f.FPs[i].FP.IsDynamic() {
			return true
		}
	}
	return false
}

// Placement-class memoization bounds. classSpace is the size of the rank
// table: ranks pack one base-classKeyBase digit per cell (digits 1..k, k ≤
// maxClassCells), so every rank of an eligible fault is < classSpace. The
// memoizing paths check the cell count against maxClassCells (canClassCache)
// before touching the table; a fault with more cells degrades to the
// uncached per-placement path instead of aliasing table slots.
const (
	maxClassCells = 3
	classKeyBase  = maxClassCells + 1
	classSpace    = classKeyBase * classKeyBase * classKeyBase
)

// canClassCache reports whether the per-placement-class memoization (and the
// lane engine, which is built on the same equivalence) applies to a fault:
// static primitives only, and few enough cells that every class rank fits
// the classSpace table.
func canClassCache(f linked.Fault) bool {
	return f.Cells >= 1 && f.Cells <= maxClassCells && !anyDynamic(f)
}

// placementClass ranks the relative address order of the placed cells: the
// cell indices in ascending address order, packed base-classKeyBase
// (cells ≤ maxClassCells).
//
// For faults with only static primitives the simulation outcome of a
// scenario depends on the placement solely through this rank: every march
// element applies the same operations at every address, so the operation
// substream a cell sees — and its good-trace annotations — depend only on
// where the cell sits relative to the other fault cells, and bystander
// steps neither match a primitive nor detect (their only side effect,
// disarming, concerns dynamic primitives). Two placements with equal rank
// therefore miss or detect identically, for identical (init, order
// combination) pairs.
//
// The rank is computed by sorting the k (address, cell) pairs — O(k log k),
// an insertion sort over at most maxClassCells entries — instead of the old
// O(size·k) scan over every memory address, so it no longer grows with the
// memory size.
func placementClass(placement []int) int {
	var addrs, cells [maxClassCells]int
	for c, a := range placement {
		i := c
		for i > 0 && addrs[i-1] > a {
			addrs[i], cells[i] = addrs[i-1], cells[i-1]
			i--
		}
		addrs[i], cells[i] = a, c
	}
	key := 0
	for i := 0; i < len(placement); i++ {
		key = key*classKeyBase + cells[i] + 1
	}
	return key
}

// classResult memoizes one placement class's block outcome.
type classResult struct {
	done     bool
	miss     bool
	initBits int
	leaf     int
}

// bindCtx is the placement-resolved view of one fault binding: every field
// the inner simulation loop needs, flattened out of the Binding/FP structs
// so stepping reads a handful of scalars instead of chasing and copying the
// notation-level representation.
type bindCtx struct {
	victimAddr int
	aggAddr    int // -1 when the primitive has no aggressor
	trigOp     bool
	trigState  bool
	dynamic    bool
	opRole     fp.Role
	opKind     fp.OpKind
	opData     fp.Value // write data of the first sensitizing operation
	op2Kind    fp.OpKind
	op2Data    fp.Value
	aInit      fp.Value // VX when unconstrained
	vInit      fp.Value // VX when unconstrained
	fv         fp.Value // faulty value stored in the victim
	r          fp.Value // faulty read return, VX when none
}

// validateBindings rejects faults whose binding indices lie outside the
// fault's declared cell set. Taxonomy faults can never fail this —
// linked.Binding.Validate enforces the same ranges — but hand-built faults
// bypass Validate, and an out-of-range index used to surface as an index
// panic deep inside bindFault (placement[b.V] / placement[b.A]) instead of
// an error. Every simulation entry point calls this before resolving a
// placement.
func validateBindings(f linked.Fault) error {
	for i := range f.FPs {
		b := &f.FPs[i]
		if b.V < 0 || b.V >= f.Cells {
			return fmt.Errorf("sim: binding %d (%s): victim index %d out of range [0,%d)",
				i, b.FP.ID(), b.V, f.Cells)
		}
		if b.A < -1 || b.A >= f.Cells {
			return fmt.Errorf("sim: binding %d (%s): aggressor index %d out of range [-1,%d)",
				i, b.FP.ID(), b.A, f.Cells)
		}
	}
	return nil
}

// bindFault resolves the fault's bindings against a placement into the
// machine's context buffer and returns whether any binding is
// state-triggered (settling is skipped entirely otherwise) and whether any
// is dynamic (arming bookkeeping is skipped otherwise).
func (m *machine) bindFault(f linked.Fault, placement []int) (hasState, hasDynamic bool) {
	if cap(m.ctxs) < len(f.FPs) {
		m.ctxs = make([]bindCtx, len(f.FPs))
	}
	m.ctxs = m.ctxs[:len(f.FPs)]
	for i := range f.FPs {
		b := &f.FPs[i]
		c := &m.ctxs[i]
		*c = bindCtx{
			victimAddr: placement[b.V],
			aggAddr:    -1,
			trigOp:     b.FP.Trigger == fp.TrigOp,
			trigState:  b.FP.Trigger == fp.TrigState,
			dynamic:    b.FP.IsDynamic(),
			opRole:     b.FP.OpRole,
			opKind:     b.FP.Op.Kind,
			opData:     b.FP.Op.Data,
			op2Kind:    b.FP.Op2.Kind,
			op2Data:    b.FP.Op2.Data,
			aInit:      b.FP.AInit,
			vInit:      b.FP.VInit,
			fv:         b.FP.F,
			r:          b.FP.R,
		}
		if b.A >= 0 {
			c.aggAddr = placement[b.A]
		}
		if b.FP.Cells != 2 {
			// MatchesOp only constrains the aggressor state of two-cell
			// primitives; mirror that here.
			c.aInit = fp.VX
		}
		if c.aInit != fp.VX && c.aggAddr < 0 {
			// An aggressor-state condition with no bound aggressor can never
			// hold (fp.FP's matchers compare it against VX); the
			// binding is inert. Only hand-built faults reach this — Validate
			// rejects them — but the simulator must not index address -1.
			// victimAddr -1 keeps it out of the trigger loop, the cleared
			// flags keep it out of the settle and wait scans.
			c.trigOp = false
			c.trigState = false
			c.victimAddr = -1
		}
		hasState = hasState || c.trigState
		hasDynamic = hasDynamic || c.dynamic
	}
	return hasState, hasDynamic
}

// settleCtx applies the state-triggered primitives (SF, CFst) of the
// resolved contexts until a fixpoint, bounded to avoid oscillation between
// mutually linked state conditions.
func (m *machine) settleCtx() {
	for iter := 0; iter <= len(m.ctxs); iter++ {
		progress := false
		for i := range m.ctxs {
			c := &m.ctxs[i]
			if !c.trigState {
				continue
			}
			// Check the aggressor's existence before indexing with its
			// address: bindFault neuters no-aggressor bindings that carry an
			// aggressor condition (clearing trigState), so aggAddr is never
			// -1 here today — but only because of that ordering. Keep the
			// bound check first so the invariant is local, not global.
			if c.aInit != fp.VX && (c.aggAddr < 0 || m.faulty[c.aggAddr] != c.aInit) {
				continue
			}
			// MatchesState requires a binary victim condition, so a VX VInit
			// (hand-built; Validate rejects it) never sensitizes.
			if c.vInit != fp.VX && m.faulty[c.victimAddr] == c.vInit && c.fv != c.vInit {
				m.faulty[c.victimAddr] = c.fv
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// waitCtx models the wait operation 't' over the resolved contexts: time
// passes for the whole array, sensitizing data retention primitives whose
// state conditions hold.
func (m *machine) waitCtx(hasState bool) {
	for i := range m.ctxs {
		c := &m.ctxs[i]
		if !c.trigOp || c.dynamic || c.opKind != fp.OpWait || c.opRole != fp.RoleVictim {
			continue
		}
		// As in settleCtx: bound-check aggAddr before indexing with it.
		if c.aInit != fp.VX && (c.aggAddr < 0 || m.faulty[c.aggAddr] != c.aInit) {
			continue
		}
		if c.vInit != fp.VX && m.faulty[c.victimAddr] != c.vInit {
			continue
		}
		m.faulty[c.victimAddr] = c.fv
	}
	if hasState {
		m.settleCtx()
	}
}

// runSteps simulates the fault over one compiled step segment from the
// machine's current state and reports whether any read detects it, leaving
// the detecting read's faulty value in m.detRet. Only the faulty array is
// simulated; reads compare against the segment's cached good trace. Each
// step runs in four stages: operation triggers against the pre-operation
// state, the operation itself, the fault effects in binding order, and the
// settling of state-triggered primitives. Bindings are pre-resolved against
// the placement (bindFault), bystander steps reduce to disarming, and the
// settle/arming bookkeeping is skipped for faults that cannot need it. The
// independent oracle (internal/oracle) pins the semantics: reference_test.go
// compares verdicts and witnesses on every library test and shipped list.
func (m *machine) runSteps(init []fp.Value, steps []opStep, hasState, hasDynamic bool) bool {
	// The loop runs a handful of instructions per step; everything it needs
	// is hoisted into locals so the compiler keeps the slice headers in
	// registers across the stores into faulty. The armed pair is swapped
	// locally and written back on exit (save/restore read the fields).
	faulty := m.faulty
	cellAt := m.cellAt
	ctxs := m.ctxs
	matched := m.matched
	armed, armedAddr := m.armed, m.armedAddr
	nextArmed, nextArmedAddr := m.nextArmed, m.nextArmedAddr
	writeback := func() {
		m.armed, m.armedAddr = armed, armedAddr
		m.nextArmed, m.nextArmedAddr = nextArmed, nextArmedAddr
	}

	for si := range steps {
		st := &steps[si]
		op := st.op
		addr := st.addr
		if op.Kind == fp.OpWait {
			m.waitCtx(hasState)
			for i := range armed {
				armed[i] = false // a wait breaks back-to-back sequences
			}
			continue
		}
		if cellAt[addr] < 0 {
			// Bystander cell: no primitive can match (every aggressor and
			// victim is a placed cell), the faulty value equals the good
			// trace by induction, and the only side effect of the step is
			// breaking any armed back-to-back sequence.
			if hasDynamic {
				for i := range armed {
					armed[i] = false
				}
			}
			continue
		}

		// 1. Evaluate operation triggers against the pre-operation faulty
		// state. Static primitives match on the single operation; dynamic
		// ones fire when the operation completes a sequence armed on the
		// previous step, and (re-)arm when it matches their first
		// operation. State-triggered and inert bindings fall out
		// naturally: their opKind is OpNone (never equal to a read or
		// write) and their victimAddr is -1 respectively.
		anyMatched := false
		for i := range ctxs {
			c := &ctxs[i]
			mt := false
			na := false
			hit := false
			if addr == c.victimAddr {
				hit = c.opRole == fp.RoleVictim
			} else if addr == c.aggAddr {
				hit = c.opRole == fp.RoleAggressor
			}
			if hit {
				if c.dynamic {
					if armed[i] && armedAddr[i] == addr &&
						op.Kind == c.op2Kind && (op.Kind != fp.OpWrite || op.Data == c.op2Data) {
						mt = true
					} else if op.Kind == c.opKind && (op.Kind != fp.OpWrite || op.Data == c.opData) &&
						(c.aInit == fp.VX || faulty[c.aggAddr] == c.aInit) &&
						(c.vInit == fp.VX || faulty[c.victimAddr] == c.vInit) {
						na = true
					}
				} else if op.Kind == c.opKind && (op.Kind != fp.OpWrite || op.Data == c.opData) &&
					(c.aInit == fp.VX || faulty[c.aggAddr] == c.aInit) &&
					(c.vInit == fp.VX || faulty[c.victimAddr] == c.vInit) {
					mt = true
				}
			}
			matched[i] = mt
			anyMatched = anyMatched || mt
			if hasDynamic {
				nextArmed[i] = na
				if na {
					nextArmedAddr[i] = addr
				}
			}
		}
		if hasDynamic {
			armed, nextArmed = nextArmed, armed
			armedAddr, nextArmedAddr = nextArmedAddr, armedAddr
		}

		// 2. Base operation semantics on the faulty machine; the good value
		// comes from the compiled trace (or the scenario's initial values
		// before the stream's first write to the cell).
		retGood, retFaulty := fp.VX, fp.VX
		changed := anyMatched
		isRead := op.Kind == fp.OpRead
		if isRead {
			retGood = st.good
			if !st.goodKnown {
				retGood = init[cellAt[addr]]
			}
			retFaulty = faulty[addr]
		} else { // write: waits were handled above
			changed = changed || faulty[addr] != op.Data
			faulty[addr] = op.Data
		}

		// 3. Fault effects, in binding order (FP1 before FP2).
		if anyMatched {
			for i := range ctxs {
				if !matched[i] {
					continue
				}
				c := &ctxs[i]
				faulty[c.victimAddr] = c.fv
				if isRead && c.victimAddr == addr && c.opRole == fp.RoleVictim && c.r != fp.VX {
					retFaulty = c.r
				}
			}
		}

		// 4. State-triggered primitives settle on the new state. The state
		// was at a fixpoint entering the step, so settling is only needed
		// when the step changed a cell (write or fault effect).
		if hasState && changed {
			m.settleCtx()
		}

		if isRead && retFaulty != retGood {
			writeback()
			m.detRet = retFaulty
			return true
		}
	}
	writeback()
	return false
}

// runTree simulates every order combination of one (placement, init) block
// by walking the segment trie: combinations sharing a prefix of order
// choices share one simulation of it, and a detection inside a shared
// prefix settles the whole subtree at once. It reports whether any
// combination fails to detect the fault and, when needWitness is set, the
// LOWEST orderSets index among the failing combinations — the combination
// the reference enumeration would have reported first (depth-first trie
// order differs from combination order, so the walk cannot just stop at its
// first miss). With needWitness unset the walk aborts on any miss.
func (s *Schedule) runTree(m *machine, f linked.Fault, placement []int, init []fp.Value, needWitness bool) (bool, int) {
	hasState, hasDynamic := m.load(f, placement, init)
	nb := len(m.ctxs)

	if len(s.roots) == 0 {
		// A test with no elements performs no reads: every combination (there
		// is exactly one) misses.
		return true, 0
	}

	depth := len(s.test.Elems) + 1
	m.ensureSnapshots(depth*s.size, depth*nb)
	missLeaf := -1

	var walk func(idx, d int)
	walk = func(idx, d int) {
		seg := &s.segs[idx]
		if m.runSteps(init, seg.steps, hasState, hasDynamic) {
			return // every combination under this prefix is detected
		}
		if seg.leaf >= 0 {
			if missLeaf < 0 || seg.leaf < missLeaf {
				missLeaf = seg.leaf
			}
			return
		}
		if len(seg.children) == 1 {
			walk(seg.children[0], d+1)
			return
		}
		m.save(d, nb, hasDynamic)
		for ci, ch := range seg.children {
			if ci > 0 {
				if missLeaf >= 0 && !needWitness {
					return
				}
				m.restore(d, nb, hasDynamic)
			}
			walk(ch, d+1)
		}
	}

	if len(s.roots) > 1 {
		m.save(0, nb, hasDynamic)
	}
	for ri, r := range s.roots {
		if ri > 0 {
			if missLeaf >= 0 && !needWitness {
				break
			}
			m.restore(0, nb, hasDynamic)
		}
		walk(r, 1)
	}
	if missLeaf < 0 {
		return false, 0
	}
	return true, missLeaf
}

// detects reports whether the test detects the fault in every scenario,
// reusing the caller's machine; witness is the first undetected scenario in
// reference enumeration order when it does not.
//
// Static faults are checked once per placement class (placementClass) rather
// than once per placement. The witness stays exact: placements are visited
// in reference order, a class is resolved at its first (i.e. earliest)
// member, and class members share their first missing (init, combination)
// pair — so the first placement whose class misses, combined with the
// class's recorded miss, is precisely the scenario the uncached enumeration
// reports first.
//
// When the fault is lane-eligible (planLanes), every placement class is
// resolved by one bit-parallel pass up front; the placement loop then only
// reads the table, so the witness construction is shared with — and exactly
// as precise as — the scalar path.
func (s *Schedule) detects(m *machine, f linked.Fault) (bool, *Scenario, error) {
	if err := validateBindings(f); err != nil {
		return false, nil, err
	}
	k := f.Cells
	useClasses := canClassCache(f)
	var classes [classSpace]classResult
	if useClasses && s.planLanes(m, f) {
		s.laneClasses(m, &classes)
	}
	init := make([]fp.Value, k)
	detected := true
	var witness *Scenario
	err := s.forEachPlacement(k, func(placement []int) bool {
		var r classResult
		if useClasses {
			cr := &classes[placementClass(placement)]
			if !cr.done {
				miss, bits, leaf := s.runBlock(m, f, placement, init, true)
				*cr = classResult{done: true, miss: miss, initBits: bits, leaf: leaf}
			}
			r = *cr
		} else {
			r.miss, r.initBits, r.leaf = s.runBlock(m, f, placement, init, true)
		}
		if r.miss {
			detected = false
			for c := 0; c < k; c++ {
				init[c] = fp.ValueOf(uint8(r.initBits>>c) & 1)
			}
			w := Scenario{Placement: placement, Init: init, Orders: s.orderSets[r.leaf]}.Clone()
			witness = &w
			return false
		}
		return true
	})
	if err != nil {
		return false, nil, err
	}
	return detected, witness, nil
}

// DetectsFault reports whether the schedule's test detects the fault in
// every scenario. When it does not, the returned witness is one undetected
// scenario.
func (s *Schedule) DetectsFault(f linked.Fault) (bool, *Scenario, error) {
	m := s.getMachine()
	defer s.putMachine(m)
	return s.detects(m, f)
}

// MissesFault reports whether the schedule's test fails to detect the fault
// in at least one scenario: the negated verdict of DetectsFault, without
// building a witness.
func (s *Schedule) MissesFault(f linked.Fault) (bool, error) {
	m := s.getMachine()
	defer s.putMachine(m)
	return s.missesFault(m, f)
}

// missesFault reports whether the test fails to detect the fault in at
// least one scenario, reusing the caller's machine.
//
// Lane-eligible faults skip the placement loop entirely: the bit-parallel
// pass covers every placement class at once (every placement belongs to one
// of the k! classes, and planLanes guarantees all of them fit in the lanes),
// so "any lane misses any leaf" is exactly "any scenario misses".
func (s *Schedule) missesFault(m *machine, f linked.Fault) (bool, error) {
	if err := validateBindings(f); err != nil {
		return false, err
	}
	k := f.Cells
	useClasses := canClassCache(f)
	if useClasses && s.planLanes(m, f) {
		return s.runLanesAny(m), nil
	}
	var classes [classSpace]classResult
	init := make([]fp.Value, k)
	miss := false
	err := s.forEachPlacement(k, func(placement []int) bool {
		if useClasses {
			cr := &classes[placementClass(placement)]
			if !cr.done {
				missed, _, _ := s.runBlock(m, f, placement, init, false)
				*cr = classResult{done: true, miss: missed}
			}
			if cr.miss {
				miss = true
				return false
			}
			return true
		}
		if missed, _, _ := s.runBlock(m, f, placement, init, false); missed {
			miss = true
			return false
		}
		return true
	})
	return miss, err
}

// result simulates one fault to a Result, reusing the caller's machine.
func (s *Schedule) result(m *machine, f linked.Fault) Result {
	det, witness, err := s.detects(m, f)
	if err != nil {
		return Result{Fault: f, Err: err}
	}
	return Result{Fault: f, Detected: det, Witness: witness}
}
