package marchgen

import (
	"context"
	"fmt"
	"io"

	"marchgen/internal/bist"
	"marchgen/internal/core"
	"marchgen/internal/diagnose"
	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/graph"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/mport"
	"marchgen/internal/optimize"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
	"marchgen/internal/word"
)

// Core model types, re-exported from the internal packages. The aliases form
// the stable public surface; the internal packages may be refactored freely.
type (
	// March is a complete march test (a sequence of march elements).
	March = march.Test
	// Element is one march element: operations plus an address order.
	Element = march.Element
	// AddrOrder is an element's address order (⇕, ⇑, ⇓).
	AddrOrder = march.AddrOrder
	// Op is a memory operation (w0, w1, r0, r1, t).
	Op = fp.Op
	// FP is a static fault primitive <S/F/R>.
	FP = fp.FP
	// Fault is a simple or linked functional fault.
	Fault = linked.Fault
	// FaultKind classifies a fault (Simple, LF1, LF2aa, LF2av, LF2va, LF3).
	FaultKind = linked.Kind
	// Options configures the generator.
	Options = core.Options
	// OrderConstraint restricts the address orders the generator may emit
	// (the Section 7 extension: all-⇑ / all-⇓ tests for efficient BIST).
	OrderConstraint = core.OrderConstraint
	// Result is a generation outcome: the march test, its certification
	// report and run statistics.
	Result = core.Result
	// Report is a fault simulation report.
	Report = sim.Report
	// SimConfig controls the fault simulator.
	SimConfig = sim.Config
)

// Address orders (re-exported constants).
const (
	Any  = march.Any
	Up   = march.Up
	Down = march.Down
)

// Generator order constraints (re-exported constants).
const (
	OrderFree     = core.OrderFree
	OrderUpOnly   = core.OrderUpOnly
	OrderDownOnly = core.OrderDownOnly
)

// Fault kinds (re-exported constants).
const (
	Simple = linked.Simple
	LF1    = linked.LF1
	LF2aa  = linked.LF2aa
	LF2av  = linked.LF2av
	LF2va  = linked.LF2va
	LF3    = linked.LF3
)

// Generate produces a march test covering every fault in the list and
// certifies it with the fault simulator before returning. See core.Generate.
func Generate(faults []Fault, opts Options) (Result, error) {
	return core.Generate(faults, opts)
}

// GenerateContext is Generate with cancellation and deadline support: a
// canceled or expired context aborts the run between simulation batches and
// returns ctx.Err(). Long-lived callers (the marchd job engine) use it to
// enforce per-job deadlines.
func GenerateContext(ctx context.Context, faults []Fault, opts Options) (Result, error) {
	return core.GenerateContext(ctx, faults, opts)
}

// ParseOrderConstraint resolves the textual spelling of a generator order
// constraint: "free" (or ""), "up", "down".
func ParseOrderConstraint(s string) (OrderConstraint, error) {
	return core.ParseOrderConstraint(s)
}

// DefaultSimConfig returns the default exhaustive simulator configuration
// (4-cell memory, every placement, every initial value, every concrete ⇕
// order) — the starting point for callers that want to adjust one knob
// (e.g. Size or Workers) before calling SimulateWith.
func DefaultSimConfig() SimConfig {
	return sim.DefaultConfig()
}

// Simulate runs a march test against a fault list under the default
// exhaustive simulator configuration (4-cell memory, every placement, every
// initial value, every concrete ⇕ order).
func Simulate(t March, faults []Fault) Report {
	return sim.Simulate(t, faults, sim.DefaultConfig())
}

// SimulateWith runs a march test against a fault list under an explicit
// simulator configuration.
func SimulateWith(t March, faults []Fault, cfg SimConfig) Report {
	return sim.Simulate(t, faults, cfg)
}

// Detects reports whether the march test detects the fault in every
// scenario of the default configuration.
func Detects(t March, f Fault) (bool, error) {
	det, _, err := sim.DetectsFault(t, f, sim.DefaultConfig())
	return det, err
}

// DetectsWith reports whether the march test detects the fault in every
// scenario of an explicit configuration, returning an undetected witness
// scenario when it does not.
func DetectsWith(t March, f Fault, cfg SimConfig) (bool, *Witness, error) {
	return sim.DetectsFault(t, f, cfg)
}

// ParseMarch parses a march test from its conventional notation, e.g.
// "⇕(w0) ⇑(r0,w1) ⇓(r1,w0)" or the ASCII form "c(w0) ^(r0,w1) v(r1,w0)".
func ParseMarch(name, spec string) (March, error) {
	return march.Parse(name, spec)
}

// ParseFP parses a fault primitive in the <S/F/R> notation, e.g.
// "<0w1;0/1/->" for a disturb coupling fault.
func ParseFP(s string) (FP, error) {
	return fp.ParseFP(s)
}

// Library returns the published march tests the repository ships (MATS+,
// March C-, March SL, March LF1, the paper's March ABL/RABL/ABL1, ...).
func Library() []March {
	return march.Lib()
}

// MarchByName looks a library test up by name.
func MarchByName(name string) (March, bool) {
	return march.ByName(name)
}

// List1 returns the paper's Fault List #1: all single-, two- and three-cell
// static linked faults of the Definition-6 space (594 faults).
func List1() []Fault {
	return faultlist.List1()
}

// List2 returns the paper's Fault List #2: the single-cell static linked
// faults (18 faults).
func List2() []Fault {
	return faultlist.List2()
}

// SimpleFaults returns the 48 simple (un-linked) static faults.
func SimpleFaults() []Fault {
	return faultlist.SimpleStatic()
}

// DynamicFaults returns the 66 simple two-operation dynamic faults (dRDF,
// dDRDF, dIRF and their coupling versions) — the extension of the group's
// companion ETS 2005 paper.
func DynamicFaults() []Fault {
	return faultlist.Dynamic()
}

// RealisticList filters a fault list down to the truly masking linked pairs
// (the "realistic" subset in the sense of Hamdioui et al.).
func RealisticList(faults []Fault) []Fault {
	return faultlist.Realistic(faults)
}

// FaultListByName resolves a named fault list ("list1", "list2", "simple",
// "simple1", "simple2", "realistic1", "realistic2").
func FaultListByName(name string) ([]Fault, error) {
	fs, ok := faultlist.ByName(name)
	if !ok {
		return nil, fmt.Errorf("marchgen: unknown fault list %q (known: %v)", name, faultlist.Names())
	}
	return fs, nil
}

// FaultListNames lists the fault-list names FaultListByName understands.
func FaultListNames() []string {
	return faultlist.Names()
}

// SimpleFault wraps a fault primitive as a standalone fault.
func SimpleFault(fpSpec string) (Fault, error) {
	f, err := fp.ParseFP(fpSpec)
	if err != nil {
		return Fault{}, err
	}
	return linked.NewSimple(f)
}

// LinkFaults builds a linked fault of the given kind from two fault
// primitives in <S/F/R> notation, validating the linking conditions of
// Definition 6/7. Valid kinds: LF1 (two single-cell primitives), LF2aa,
// LF2av, LF2va (two cells) and LF3 (three cells, distinct aggressors).
func LinkFaults(kind FaultKind, fp1Spec, fp2Spec string) (Fault, error) {
	f1, err := fp.ParseFP(fp1Spec)
	if err != nil {
		return Fault{}, err
	}
	f2, err := fp.ParseFP(fp2Spec)
	if err != nil {
		return Fault{}, err
	}
	switch kind {
	case linked.LF1:
		return linked.NewLF1(f1, f2)
	case linked.LF2aa:
		return linked.NewLF2aa(f1, f2)
	case linked.LF2av:
		return linked.NewLF2av(f1, f2)
	case linked.LF2va:
		return linked.NewLF2va(f1, f2)
	case linked.LF3:
		return linked.NewLF3(f1, f2)
	}
	return Fault{}, fmt.Errorf("marchgen: kind %v is not a linked fault kind", kind)
}

// PatternDOT writes the pattern graph of a fault list on an n-cell memory
// model in Graphviz DOT format (the representation of the paper's Figures 2
// and 4). With an empty fault list it renders the fault-free model G0.
func PatternDOT(w io.Writer, n int, faults []Fault, title string) error {
	g, err := graph.Pattern(n, faults)
	if err != nil {
		return err
	}
	return g.DOT(w, title)
}

// Certify re-validates an existing march test at the exhaustive
// configuration, returning the full report.
func Certify(t March, faults []Fault) (Report, error) {
	return core.Certify(t, faults)
}

// Search-based optimizer types, re-exported from internal/optimize.
type (
	// OptimizeOptions configures the search-based march-test optimizer
	// (beam search + annealed mutation over element-level moves).
	OptimizeOptions = optimize.Options
	// OptimizeResult is an optimization outcome: the certified winner, the
	// seed it started from, and run statistics.
	OptimizeResult = optimize.Result
	// OptimizeProgress is a point-in-time snapshot of a running search.
	OptimizeProgress = optimize.Progress
)

// Optimize searches for a shorter full-coverage march test starting from a
// seed (explicit or generated). The winner is never longer than the seed and
// is certified through CertifyWithOracle before being returned. See
// internal/optimize for the search description (DESIGN.md §14).
func Optimize(faults []Fault, opts OptimizeOptions) (OptimizeResult, error) {
	return optimize.Run(faults, opts)
}

// OptimizeContext is Optimize with cancellation support: a canceled context
// aborts the search within one candidate evaluation.
func OptimizeContext(ctx context.Context, faults []Fault, opts OptimizeOptions) (OptimizeResult, error) {
	return optimize.RunContext(ctx, faults, opts)
}

// CertifyWithOracle certifies a march test the strong way: consistency,
// full coverage under the production simulator, and bit-for-bit agreement
// with the independent reference oracle. The optimizer's certify-before-land
// gate, exposed for external tooling.
func CertifyWithOracle(t March, faults []Fault, cfg SimConfig) (Report, error) {
	return core.CertifyWithOracle(t, faults, cfg)
}

// VerdictDiff is one disagreement between the production fault simulator and
// the independent reference oracle: the fault, the diverging field (count,
// fault, error, detected, witness) and both values.
type VerdictDiff = sim.VerdictDiff

// CrossCheck simulates the test against the fault list with both the
// production simulator (internal/sim) and the independent reference oracle
// (internal/oracle) and returns every disagreement in verdict, missed set or
// witness. An empty result means the two implementations — which share no
// code on the verdict path — agree bit-for-bit.
func CrossCheck(t March, faults []Fault, cfg SimConfig) []VerdictDiff {
	return oracle.CrossCheck(t, faults, cfg)
}

// Verify is CrossCheck under the default exhaustive configuration.
func Verify(t March, faults []Fault) []VerdictDiff {
	return CrossCheck(t, faults, sim.DefaultConfig())
}

// Witness is an undetected simulation scenario (placement, initial values,
// concrete address orders), as reported in a Report's missed entries.
type Witness = sim.Scenario

// TraceWitness replays one scenario of a fault under a march test and
// writes a step-by-step table showing every operation on the fault's cells,
// which primitives fired, and where the good and faulty machines diverged —
// the diagnostic behind "why does this test miss this fault".
func TraceWitness(w io.Writer, t March, f Fault, s Witness) error {
	tr, err := sim.TraceScenario(t, f, s, sim.DefaultConfig())
	if err != nil {
		return err
	}
	return tr.Render(w, false)
}

// BISTCost is the estimated implementation cost of a march test in a memory
// BIST controller (cycles, sequencer states, address-order reversals).
type BISTCost = bist.Cost

// EstimateBIST estimates the BIST cost of applying a march test to an
// n-cell memory, charging delayCycles per wait operation. It quantifies the
// single-order trade-off of the OrderUpOnly/OrderDownOnly generator
// profiles.
func EstimateBIST(t March, n int, delayCycles int64) BISTCost {
	return bist.Estimate(t, n, delayCycles)
}

// Word-oriented testing types, re-exported from internal/word and core.
type (
	// WordBackground is one data background: the pattern a word-wide write
	// applies for march data 0 (its complement for data 1).
	WordBackground = word.Background
	// WordFault is an intra-word two-cell fault (aggressor bit, victim bit).
	WordFault = word.Fault
	// WordConfig sizes the word-oriented memory model.
	WordConfig = word.Config
	// WordResult is Generate's word-oriented evaluation section.
	WordResult = core.WordResult
	// MportResult is Generate's two-port evaluation section.
	MportResult = core.MportResult
)

// WordBackgrounds returns the standard background set for a w-bit word:
// solid plus the log2(w) alternating patterns.
func WordBackgrounds(width int) ([]WordBackground, error) {
	return word.Backgrounds(width)
}

// WordFaults returns the march-testable intra-word two-cell faults of a
// w-bit word.
func WordFaults(width int) []WordFault {
	return word.TestableIntraWordFaults(width)
}

// WordDetects reports whether the march test, applied word-wide under the
// background set, detects the intra-word fault from both uniform initial
// values.
func WordDetects(t March, f WordFault, bgs []WordBackground, cfg WordConfig) (bool, error) {
	return word.Detects(t, f, bgs, cfg)
}

// TransparentMarch derives the transparent in-field variant of a march test
// (Li et al.): the initializing write element is dropped and the memory's
// existing content plays the role of the data background, so the test runs
// without destroying state. Errors when the test does not admit the
// transform (first element not write-only, or reads that disagree with the
// running content value).
func TransparentMarch(t March) (March, error) {
	return word.Transparent(t)
}

// EvaluateWord grades a march test on the word axis (and, optionally, its
// transparent variant). Nil result when width <= 1.
func EvaluateWord(ctx context.Context, t March, width int, transparent bool) (*WordResult, error) {
	return core.EvaluateWord(ctx, t, width, transparent)
}

// EvaluateMport grades a march test on the two-port axis: the weak-fault
// coverage of its lifted (port B idle) form, plus a dedicated two-port march
// from the directed constructor. Nil result when ports <= 1.
func EvaluateMport(ctx context.Context, t March, ports int) (*MportResult, error) {
	return core.EvaluateMport(ctx, t, ports)
}

// Diagnosis types, re-exported from internal/diagnose.
type (
	// ReadID identifies one read operation of an applied march test.
	ReadID = diagnose.ReadID
	// Syndrome is the set of failing reads of one march test run.
	Syndrome = diagnose.Syndrome
	// DiagnoseObservation is one executed march test plus its recorded
	// syndrome.
	DiagnoseObservation = diagnose.Observation
	// DiagnoseCandidate is a fault instance (model + placement) consistent
	// with every observation so far.
	DiagnoseCandidate = diagnose.Candidate
	// FaultDictionary maps failure signatures to fault instances.
	FaultDictionary = diagnose.Dictionary
	// AdaptiveDiagnosis summarizes an adaptive localization session.
	AdaptiveDiagnosis = diagnose.AdaptiveResult
)

// BuildDictionary simulates every fault of the list in every placement under
// the march test and records the failure signatures.
func BuildDictionary(t March, faults []Fault, cfg SimConfig) (*FaultDictionary, error) {
	return diagnose.Build(t, faults, cfg)
}

// ParseSyndrome parses rendered read IDs ("M1#0@2", ...) into a Syndrome.
func ParseSyndrome(ids []string) (Syndrome, error) {
	return diagnose.ParseSyndrome(ids)
}

// DiagnoseLocalize intersects the observations: a candidate fault instance
// survives iff its simulated signature matches the recorded syndrome under
// every observed test.
func DiagnoseLocalize(faults []Fault, obs []DiagnoseObservation, cfg SimConfig) ([]DiagnoseCandidate, error) {
	return diagnose.Localize(faults, obs, cfg)
}

// DiagnoseNextTest picks the march from the pool that best splits the
// candidate set (minimizing the largest ambiguity class), excluding tests
// already executed. ok is false when no pool test splits the set.
func DiagnoseNextTest(cands []DiagnoseCandidate, pool []March, exclude map[string]bool, cfg SimConfig) (March, bool, error) {
	return diagnose.NextTest(cands, pool, exclude, cfg)
}

// AdaptiveLocalize drives the whole adaptive loop against a simulated device
// under test until the candidate set is a singleton, stable, or maxRounds is
// exhausted.
func AdaptiveLocalize(target Fault, placement []int, faults []Fault, pool []March, start March, cfg SimConfig, maxRounds int) (AdaptiveDiagnosis, error) {
	return diagnose.AdaptiveLocalize(target, placement, faults, pool, start, cfg, maxRounds)
}

// Two-port (dual-port) testing types, re-exported from internal/mport.
type (
	// MportTest is a two-port march test in pair notation.
	MportTest = mport.Test
	// MportFault is a weak two-port fault (W2RDF/W2DRDF/W2IRF/WCC).
	MportFault = mport.Fault
)

// MportCatalog returns the modeled weak two-port fault catalog.
func MportCatalog() []MportFault {
	return mport.Catalog()
}

// LiftMarch lifts a single-port march test to the two-port notation with
// port B idle.
func LiftMarch(t March) (MportTest, error) {
	return mport.Lift(t)
}

// GenerateMport constructs a two-port march covering the fault catalog with
// the directed constructor.
func GenerateMport(faults []MportFault, opts mport.Options) (MportTest, mport.Report, error) {
	return mport.Generate(faults, opts)
}
