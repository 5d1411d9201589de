package service

import (
	"encoding/json"
	"fmt"

	"marchgen"
)

// faultSpec is the part of a request that names the target faults: either a
// named shipped list ("list1", "list2", "simple", ...) or an inline list of
// fault documents in the linked-fault wire form
// ({"kind":"LF1","fps":["<...>","<...>"]}). Exactly one must be present.
type faultSpec struct {
	List   string           `json:"list,omitempty"`
	Faults []marchgen.Fault `json:"faults,omitempty"`
}

// resolve returns the concrete fault list the spec names.
func (fs faultSpec) resolve() ([]marchgen.Fault, error) {
	switch {
	case fs.List != "" && len(fs.Faults) > 0:
		return nil, fmt.Errorf("request names both a fault list %q and inline faults; pick one", fs.List)
	case fs.List != "":
		return marchgen.FaultListByName(fs.List)
	case len(fs.Faults) > 0:
		return fs.Faults, nil
	}
	return nil, fmt.Errorf("request names no faults: set \"list\" or \"faults\"")
}

// marchSpec names a march test: a library test by name, or an inline
// sequence in the conventional notation (with an optional name as label).
type marchSpec struct {
	Name string `json:"name,omitempty"`
	Spec string `json:"spec,omitempty"`
}

// resolve returns the concrete march test the spec names, validated for
// march consistency.
func (ms marchSpec) resolve() (marchgen.March, error) {
	var t marchgen.March
	switch {
	case ms.Spec != "":
		name := ms.Name
		if name == "" {
			name = "custom"
		}
		parsed, err := marchgen.ParseMarch(name, ms.Spec)
		if err != nil {
			return t, err
		}
		t = parsed
	case ms.Name != "":
		lib, ok := marchgen.MarchByName(ms.Name)
		if !ok {
			return t, fmt.Errorf("unknown march test %q (GET /v1/library lists the shipped tests)", ms.Name)
		}
		t = lib
	default:
		return t, fmt.Errorf("request names no march test: set \"march.name\" or \"march.spec\"")
	}
	if err := t.CheckConsistency(); err != nil {
		return t, fmt.Errorf("inconsistent march test: %v", err)
	}
	return t, nil
}

// jobDeadline is the timeout_ms field every asynchronous request body
// embeds (JSON flattens it into the body's own fields).
type jobDeadline struct {
	// TimeoutMS is the per-job deadline in milliseconds; 0 (or a value
	// beyond the server's cap) means the server's maximum job timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (d jobDeadline) deadlineMS() int64 { return d.TimeoutMS }

// simConfigSpec is the config field of the request bodies that run the
// simulator.
type simConfigSpec struct {
	// Config selects the simulator configuration; omitted means the
	// exhaustive default (4 cells, every placement, init and order).
	Config *marchgen.SimConfig `json:"config,omitempty"`
}

// simConfig returns the requested configuration, or the default when the
// request omits it.
func (cs simConfigSpec) simConfig() marchgen.SimConfig {
	if cs.Config != nil {
		return *cs.Config
	}
	return defaultSimConfig()
}

// defaultSimConfig is the exhaustive default the API documents for omitted
// configs.
func defaultSimConfig() marchgen.SimConfig {
	return marchgen.SimConfig{Size: 4, ExhaustiveOrders: true}
}

// generateRequest is the POST /v1/generate body.
type generateRequest struct {
	faultSpec
	// Options configures the generator; omitted fields take their
	// documented defaults (the canonical form is what the job runs and what
	// the cache key hashes).
	Options *marchgen.Options `json:"options,omitempty"`
	jobDeadline
}

// simulateRequest is the POST /v1/simulate body.
type simulateRequest struct {
	March marchSpec `json:"march"`
	faultSpec
	simConfigSpec
}

// verifyRequest is the POST /v1/verify body: a march test, a fault list and
// a simulator configuration to cross-check between the production simulator
// and the independent reference oracle.
type verifyRequest struct {
	March marchSpec `json:"march"`
	faultSpec
	simConfigSpec
	jobDeadline
}

// verifyAxisJSON is one axis cross-check section of a verify result: the
// axis dimension, the fault space checked, and every verdict divergence
// between the production implementation and its independent reference.
type verifyAxisJSON struct {
	Width       int      `json:"width,omitempty"`
	Ports       int      `json:"ports,omitempty"`
	Faults      int      `json:"faults"`
	Agree       bool     `json:"agree"`
	Divergences []string `json:"divergences"`
}

// marshalVerifyResult renders the cached (and returned) result document of
// a verification job: the resolved test, the cross-check scope, and every
// divergence between the two simulators (an empty list means bit-for-bit
// agreement). The word and mport sections appear only when the config asks
// for those axes, so pre-axis responses keep their exact shape.
func marshalVerifyResult(test marchgen.March, faults int, cfg marchgen.SimConfig, diffs []marchgen.VerdictDiff, word, mport *verifyAxisJSON, key string) ([]byte, error) {
	if diffs == nil {
		diffs = []marchgen.VerdictDiff{}
	}
	out := struct {
		Test        marchgen.March         `json:"test"`
		Faults      int                    `json:"faults"`
		Config      marchgen.SimConfig     `json:"config"`
		Agree       bool                   `json:"agree"`
		Divergences []marchgen.VerdictDiff `json:"divergences"`
		Word        *verifyAxisJSON        `json:"word,omitempty"`
		Mport       *verifyAxisJSON        `json:"mport,omitempty"`
		Key         string                 `json:"cache_key"`
	}{test, faults, cfg, len(diffs) == 0, diffs, word, mport, key}
	return json.Marshal(out)
}

// optimizeRequest is the POST /v1/optimize body: a fault list, an optional
// explicit seed test (a library test by name or an inline sequence;
// omitted means the server generates the seed with the given generator
// options), and the search knobs. Omitted knobs take the optimizer's
// documented defaults, filled in before the cache key is derived so
// spelling variants share cache entries.
type optimizeRequest struct {
	faultSpec
	// March optionally names the seed test; omitted means generate one.
	March *marchSpec `json:"march,omitempty"`
	// Name labels the optimized test ("March OPT" if empty).
	Name string `json:"name,omitempty"`
	// Seed is the rng seed (default 1); equal requests reproduce bit-for-bit.
	Seed int64 `json:"seed,omitempty"`
	// Budget bounds coverage evaluations (default 2000).
	Budget int `json:"budget,omitempty"`
	// BeamWidth is the beam size (default 4).
	BeamWidth int `json:"beam_width,omitempty"`
	// Restarts is the annealing restart count (default 3).
	Restarts int `json:"restarts,omitempty"`
	// BISTCells enables the BIST cycle tie-break on that memory size.
	BISTCells int `json:"bist_cells,omitempty"`
	// BISTWeight promotes BIST cycles from tie-break to fitness term:
	// candidates are ordered by length + weight × cycles. 0 keeps the
	// pure-length search.
	BISTWeight float64 `json:"bist_weight,omitempty"`
	// Generator configures seed generation when March is omitted.
	Generator *marchgen.Options `json:"generator,omitempty"`
	jobDeadline
}

// options resolves the request into explicit optimizer options: the seed
// test (nil when generated server-side) and every knob with its default
// filled in.
func (req optimizeRequest) options() (*marchgen.March, marchgen.OptimizeOptions, error) {
	opts := marchgen.OptimizeOptions{
		Name:       req.Name,
		Seed:       req.Seed,
		Budget:     req.Budget,
		BeamWidth:  req.BeamWidth,
		Restarts:   req.Restarts,
		BISTCells:  req.BISTCells,
		BISTWeight: req.BISTWeight,
	}
	if opts.Name == "" {
		opts.Name = "March OPT"
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Budget <= 0 {
		opts.Budget = 2000
	}
	if opts.BeamWidth <= 0 {
		opts.BeamWidth = 4
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 3
	}
	if req.March != nil {
		t, err := req.March.resolve()
		if err != nil {
			return nil, opts, err
		}
		opts.SeedTest = &t
		return &t, opts, nil
	}
	if req.Generator != nil {
		opts.Generator = *req.Generator
	}
	opts.Generator = opts.Generator.Canonical()
	return nil, opts, nil
}

// optimizeStatsJSON is the wire form of optimizer statistics.
type optimizeStatsJSON struct {
	Faults      int     `json:"faults"`
	SeedLength  int     `json:"seed_length"`
	Evaluations int     `json:"evaluations"`
	Accepted    int     `json:"accepted"`
	Restarts    int     `json:"restarts"`
	Improved    bool    `json:"improved"`
	Seconds     float64 `json:"search_seconds"`
}

// marshalOptimizeResult renders the cached (and returned) result document
// of an optimization job: the certified winner with its provenance, the
// seed it started from, the certification report and the run statistics.
func marshalOptimizeResult(res marchgen.OptimizeResult, key string) ([]byte, error) {
	out := struct {
		Test   marchgen.March    `json:"test"`
		Seed   marchgen.March    `json:"seed"`
		Report marchgen.Report   `json:"report"`
		Stats  optimizeStatsJSON `json:"stats"`
		Key    string            `json:"cache_key"`
	}{
		Test:   res.Test,
		Seed:   res.Seed,
		Report: res.Report,
		Stats: optimizeStatsJSON{
			Faults:      res.Stats.Faults,
			SeedLength:  res.Stats.SeedLength,
			Evaluations: res.Stats.Evaluations,
			Accepted:    res.Stats.Accepted,
			Restarts:    res.Stats.Restarts,
			Improved:    res.Stats.Improved,
			Seconds:     res.Stats.Duration.Seconds(),
		},
		Key: key,
	}
	return json.Marshal(out)
}

// detectsRequest is the POST /v1/detects body.
type detectsRequest struct {
	March marchSpec `json:"march"`
	// Fault is the single fault to check, in the linked-fault wire form.
	Fault *marchgen.Fault `json:"fault"`
	simConfigSpec
}

// statsJSON is the wire form of generation statistics.
type statsJSON struct {
	Faults               int     `json:"faults"`
	WalkerElements       int     `json:"walker_elements"`
	WalkerOps            int     `json:"walker_ops"`
	RepairElements       int     `json:"repair_elements"`
	LengthBeforeMinimize int     `json:"length_before_minimize"`
	Simulations          int     `json:"simulations"`
	Seconds              float64 `json:"generation_seconds"`
}

// marshalGenerateResult renders the cached (and returned) result document
// of a generation job. The document is marshaled exactly once per cache
// entry; repeat requests receive these bytes verbatim.
func marshalGenerateResult(res marchgen.Result, opts marchgen.Options, key string) ([]byte, error) {
	out := struct {
		Test    marchgen.March   `json:"test"`
		Report  marchgen.Report  `json:"report"`
		Options marchgen.Options `json:"options"`
		// Word and Mport carry the axis evaluations; absent (and therefore
		// invisible to pre-axis clients) at width=1/ports=1.
		Word  *marchgen.WordResult  `json:"word,omitempty"`
		Mport *marchgen.MportResult `json:"mport,omitempty"`
		Stats statsJSON             `json:"stats"`
		Key   string                `json:"cache_key"`
	}{
		Test:    res.Test,
		Report:  res.Report,
		Options: opts,
		Word:    res.Word,
		Mport:   res.Mport,
		Stats: statsJSON{
			Faults:               res.Stats.Faults,
			WalkerElements:       res.Stats.WalkerElements,
			WalkerOps:            res.Stats.WalkerOps,
			RepairElements:       res.Stats.RepairElements,
			LengthBeforeMinimize: res.Stats.LengthBeforeMinimize,
			Simulations:          res.Stats.Simulations,
			Seconds:              res.Stats.Duration.Seconds(),
		},
		Key: key,
	}
	return json.Marshal(out)
}

// observationSpec is one executed march test plus the syndrome the tester
// recorded, as it arrives in a diagnosis request.
type observationSpec struct {
	March marchSpec `json:"march"`
	// Syndrome lists the failing reads in the "M<elem>#<op>@<addr>" form the
	// simulator's trace renders.
	Syndrome []string `json:"syndrome"`
}

// diagnoseRequest is the POST /v1/diagnose body: the fault-model space to
// search, the memory model, and the observation sequence (executed tests
// with their syndromes).
type diagnoseRequest struct {
	faultSpec
	simConfigSpec
	// Observations is the executed-test/syndrome sequence, in execution
	// order. At least one is required.
	Observations []observationSpec `json:"observations"`
	jobDeadline
}

// resolveObservations parses and resolves the observation sequence into the
// diagnosis engine's form plus the canonical form the cache key hashes.
func (req diagnoseRequest) resolveObservations() ([]marchgen.DiagnoseObservation, []diagnoseObservation, error) {
	if len(req.Observations) == 0 {
		return nil, nil, fmt.Errorf("request has no observations: set \"observations\" to at least one executed test with its syndrome")
	}
	obs := make([]marchgen.DiagnoseObservation, 0, len(req.Observations))
	canon := make([]diagnoseObservation, 0, len(req.Observations))
	for i, o := range req.Observations {
		t, err := o.March.resolve()
		if err != nil {
			return nil, nil, fmt.Errorf("observation %d: %v", i, err)
		}
		syn, err := marchgen.ParseSyndrome(o.Syndrome)
		if err != nil {
			return nil, nil, fmt.Errorf("observation %d: %v", i, err)
		}
		obs = append(obs, marchgen.DiagnoseObservation{Test: t, Syndrome: syn})
		canon = append(canon, diagnoseObservation{Name: t.Name, Spec: t.ASCII(), Syndrome: syn.Key()})
	}
	return obs, canon, nil
}

// diagnoseCandidateJSON is the wire form of one surviving fault instance.
type diagnoseCandidateJSON struct {
	Fault     marchgen.Fault `json:"fault"`
	Placement []int          `json:"placement"`
	ID        string         `json:"id"`
}

// nextTestJSON names the follow-up march the adaptive strategy recommends.
type nextTestJSON struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// marshalDiagnoseResult renders the cached (and returned) result document of
// a diagnosis job: the surviving candidate set, its status (localized /
// ambiguous / empty), and — while ambiguous — the follow-up march that best
// splits the survivors.
func marshalDiagnoseResult(cands []marchgen.DiagnoseCandidate, next *marchgen.March, observations int, cfg marchgen.SimConfig, key string) ([]byte, error) {
	wireCands := make([]diagnoseCandidateJSON, 0, len(cands))
	for _, c := range cands {
		pl := c.Placement
		if pl == nil {
			pl = []int{}
		}
		wireCands = append(wireCands, diagnoseCandidateJSON{Fault: c.Fault, Placement: pl, ID: c.String()})
	}
	status := "ambiguous"
	switch len(cands) {
	case 0:
		status = "empty"
	case 1:
		status = "localized"
	}
	var wireNext *nextTestJSON
	if next != nil {
		wireNext = &nextTestJSON{Name: next.Name, Spec: next.ASCII()}
	}
	out := struct {
		Candidates   []diagnoseCandidateJSON `json:"candidates"`
		Status       string                  `json:"status"`
		Next         *nextTestJSON           `json:"next,omitempty"`
		Observations int                     `json:"observations"`
		Config       marchgen.SimConfig      `json:"config"`
		Key          string                  `json:"cache_key"`
	}{wireCands, status, wireNext, observations, cfg, key}
	return json.Marshal(out)
}
