package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"marchgen/internal/bist"
	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/optimize"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// defaultBISTCells is the array size BIST costs are estimated for when the
// unit names no topology, and the cycle charge per delay operation. Both are
// fixed constants so result documents stay deterministic.
const (
	defaultBISTCells = 1024
	bistDelayCycles  = 1000
)

// CoverageJSON is the detected/total pair of a certification run.
type CoverageJSON struct {
	Detected int `json:"detected"`
	Total    int `json:"total"`
}

// BISTJSON is the wire form of a BIST cost estimate.
type BISTJSON struct {
	Cells         int   `json:"cells"`
	Cycles        int64 `json:"cycles"`
	Elements      int   `json:"elements"`
	OrderSwitches int   `json:"order_switches"`
	SingleOrder   bool  `json:"single_order"`
}

// TopoJSON reports how the array shape interacts with logical address
// order: the number of logically adjacent address pairs that are not
// physically adjacent (what scrambled/wide arrays hide from march tests).
type TopoJSON struct {
	Rows        int `json:"rows"`
	Cols        int `json:"cols"`
	RemotePairs int `json:"logically_adjacent_physically_remote"`
}

// OptimizeJSON records the optimizer sweep point of a unit with a non-zero
// optimize budget: the search knobs, the certified winner, and the search
// effort actually spent. Length vs Budget across units is the raw material
// of the frontier report. No wall-clock fields — the record must stay a
// pure function of the unit coordinates.
type OptimizeJSON struct {
	Budget      int    `json:"budget"`
	Seed        int64  `json:"seed"`
	SeedLength  int    `json:"seed_length"`
	Length      int    `json:"length"`
	Test        string `json:"test"`
	Evaluations int    `json:"evaluations"`
	Improved    bool   `json:"improved"`
	MoveTrace   string `json:"move_trace"`
	// BISTWeight and BISTCycles record the BIST-aware fitness of a weighted
	// sweep point: the weight applied and the winner's application cost on
	// the unit's array. Both are omitted for the historical pure-length
	// objective (weight 0), so weight-free records are byte-identical.
	BISTWeight float64 `json:"bist_weight,omitempty"`
	BISTCycles int64   `json:"bist_cycles,omitempty"`
}

// VerifyJSON is the differential cross-check of a verify-enabled unit: the
// certified test re-simulated by the independent reference oracle
// (internal/oracle) and compared with the production simulator's verdicts.
// Divergences is 0 when the two implementations agree bit-for-bit; First
// records the first disagreement otherwise.
type VerifyJSON struct {
	Faults      int    `json:"faults"`
	Divergences int    `json:"divergences"`
	First       string `json:"first,omitempty"`
}

// UnitResult is the deterministic result document of one unit: everything
// in it is a pure function of the unit coordinates, so two runs of the same
// unit marshal to byte-identical records. Wall-clock timings are
// deliberately absent — they go to progress events and logs, never to the
// store.
type UnitResult struct {
	Unit     Unit         `json:"unit"`
	Test     string       `json:"test"`
	Length   int          `json:"length"`
	Coverage CoverageJSON `json:"coverage"`
	// Simulations is the generator's candidate-evaluation count (the
	// search-effort column of the sweep).
	Simulations int      `json:"simulations"`
	BIST        BISTJSON `json:"bist"`
	// Word is the word-oriented evaluation of a width > 1 unit and Mport
	// the two-port evaluation of a ports=2 unit, recorded as core computes
	// them (their transparent fields are omitted for non-transparent units,
	// so pre-axis records are byte-identical).
	Word     *core.WordResult  `json:"word,omitempty"`
	Mport    *core.MportResult `json:"mport,omitempty"`
	Topo     *TopoJSON         `json:"topo,omitempty"`
	Verify   *VerifyJSON       `json:"verify,omitempty"`
	Optimize *OptimizeJSON     `json:"optimize,omitempty"`
	// Error records a unit-level failure (e.g. a fault list the constrained
	// generator cannot cover). Failed units are results, not run aborts: the
	// error text is deterministic and the sweep continues.
	Error string `json:"error,omitempty"`
}

// runUnit executes one unit: generate a march test for the unit's fault
// list under its profile/order constraints, certify it on a Size-cell
// memory, then evaluate the word-width and topology views. The returned
// document is deterministic; err is non-nil only for infrastructure
// failures (context cancellation), never for fault-coverage outcomes.
func runUnit(ctx context.Context, u Unit) (UnitResult, error) {
	gen, err := generateForUnit(ctx, u)
	return buildResult(ctx, u, gen, err)
}

// generateForUnit is the generation step alone: the part units sharing
// (list, profile, order, size) coordinates can reuse (see Memo).
func generateForUnit(ctx context.Context, u Unit) (core.Result, error) {
	faults, ok := faultlist.ByName(u.List)
	if !ok {
		return core.Result{}, fmt.Errorf("unknown fault list %q", u.List)
	}
	constraint, err := core.ParseOrderConstraint(u.Order)
	if err != nil {
		return core.Result{}, err
	}
	opts := core.Options{
		Name:        fmt.Sprintf("March CAMP(%s,%s,%s,n=%d)", u.List, u.Profile, u.Order, u.Size),
		Aggressive:  u.Profile == ProfileAggressive,
		Orders:      constraint,
		FinalConfig: sim.Config{Size: u.Size, ExhaustiveOrders: true},
	}
	return core.GenerateContext(ctx, faults, opts)
}

// buildResult derives the unit's result document from its generation
// outcome: certification coverage, BIST cost on the unit's topology, and
// the word-oriented evaluation. Generation failures with a deterministic
// cause become recorded unit errors; context failures abort the run.
func buildResult(ctx context.Context, u Unit, gen core.Result, err error) (UnitResult, error) {
	res := UnitResult{Unit: u}
	if err != nil {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		res.Error = err.Error()
		return res, nil
	}
	res.Test = gen.Test.String()
	res.Length = gen.Test.Length()
	res.Coverage = CoverageJSON{Detected: gen.Report.Detected(), Total: gen.Report.Total()}
	res.Simulations = gen.Stats.Simulations

	bistCells := defaultBISTCells
	if u.Topology != "" {
		tp, err := ParseTopology(u.Topology)
		if err != nil {
			res.Error = err.Error()
			return res, nil
		}
		bistCells = tp.Cells()
		remote, err := tp.LogicallyAdjacentPhysicallyRemote()
		if err != nil {
			res.Error = err.Error()
			return res, nil
		}
		res.Topo = &TopoJSON{Rows: tp.Rows, Cols: tp.Cols, RemotePairs: remote}
	}
	cost := bist.Estimate(gen.Test, bistCells, bistDelayCycles)
	res.BIST = BISTJSON{
		Cells:         bistCells,
		Cycles:        cost.Cycles,
		Elements:      cost.Elements,
		OrderSwitches: cost.OrderSwitches,
		SingleOrder:   cost.SingleOrder,
	}

	if u.OptBudget > 0 {
		faults, ok := faultlist.ByName(u.List)
		if !ok {
			res.Error = fmt.Sprintf("unknown fault list %q", u.List)
			return res, nil
		}
		seed := gen.Test
		opt, err := optimize.RunContext(ctx, faults, optimize.Options{
			Name:       fmt.Sprintf("%s opt(b=%d,s=%d)", gen.Test.Name, u.OptBudget, u.OptSeed),
			Seed:       u.OptSeed,
			Budget:     u.OptBudget,
			SeedTest:   &seed,
			BISTCells:  bistCells,
			BISTWeight: u.OptBISTWeight,
			Config:     sim.Config{Size: u.Size, ExhaustiveOrders: true},
		})
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			res.Error = err.Error()
			return res, nil
		}
		res.Optimize = &OptimizeJSON{
			Budget:      u.OptBudget,
			Seed:        opt.Test.Prov.Seed,
			SeedLength:  opt.Stats.SeedLength,
			Length:      opt.Test.Length(),
			Test:        opt.Test.String(),
			Evaluations: opt.Stats.Evaluations,
			Improved:    opt.Stats.Improved,
			MoveTrace:   opt.Test.Prov.MoveTrace,
		}
		if u.OptBISTWeight > 0 {
			// The quantity the weighted fitness minimized, recorded on the
			// winner so the report renders the optimized cost, not the
			// generated test's.
			res.Optimize.BISTWeight = u.OptBISTWeight
			res.Optimize.BISTCycles = bist.Estimate(opt.Test, bistCells, bistDelayCycles).Cycles
		}
	}

	if u.Verify {
		faults, ok := faultlist.ByName(u.List)
		if !ok {
			res.Error = fmt.Sprintf("unknown fault list %q", u.List)
			return res, nil
		}
		diffs := oracle.CrossCheck(gen.Test, faults, sim.Config{Size: u.Size, ExhaustiveOrders: true})
		vj := &VerifyJSON{Faults: len(faults), Divergences: len(diffs)}
		if len(diffs) > 0 {
			vj.First = diffs[0].String()
		}
		res.Verify = vj
	}

	if u.Width > 1 {
		w, err := core.EvaluateWord(ctx, gen.Test, u.Width, u.Transparent)
		res.Word = w
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			// Records carry the word package's own message, without the
			// prefix core adds to a failed transparent transform.
			if cause := errors.Unwrap(err); cause != nil {
				err = cause
			}
			res.Error = err.Error()
			return res, nil
		}
	}

	if u.Ports > 1 {
		mres, err := core.EvaluateMport(ctx, gen.Test, u.Ports)
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			res.Error = err.Error()
			return res, nil
		}
		res.Mport = mres
	}
	return res, nil
}

// marshalResult renders a unit result for the store. Encoding goes through
// one fixed struct so field order — and therefore the byte-identity
// guarantee — is pinned here.
func marshalResult(r UnitResult) (json.RawMessage, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("campaign: unit %s: %w", r.Unit.ID(), err)
	}
	return b, nil
}
