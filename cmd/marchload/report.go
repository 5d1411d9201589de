package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// classReport is the per-class section of the load report. Success ratios
// exclude sheds and incompletes: a 429 is the server doing its job, not
// the class failing, and an op the run clock cut off proves nothing.
type classReport struct {
	Requests   int64 `json:"requests"`
	Success    int64 `json:"success"`
	Shed       int64 `json:"shed"`
	Errors     int64 `json:"errors"`
	Incomplete int64 `json:"incomplete"`

	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
	P999ms float64 `json:"p999_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// successRatio is success / (requests - shed - incomplete).
func (c classReport) successRatio() float64 {
	denom := c.Requests - c.Shed - c.Incomplete
	if denom <= 0 {
		return 0
	}
	return float64(c.Success) / float64(denom)
}

type gateResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// loadReport is the JSON report -out writes and -baseline reads.
type loadReport struct {
	GeneratedAt string       `json:"generated_at"`
	Target      string       `json:"target"`
	Config      reportConfig `json:"config"`

	DurationSeconds float64 `json:"duration_seconds"`

	Totals struct {
		Requests   int64   `json:"requests"`
		Success    int64   `json:"success"`
		Shed       int64   `json:"shed"`
		Errors     int64   `json:"errors"`
		Incomplete int64   `json:"incomplete"`
		RPS        float64 `json:"rps"`
	} `json:"totals"`

	Classes map[string]classReport `json:"classes"`

	// AllocsPerCachedHit is the server-side mallocs delta per back-to-back
	// cache-hit request (nil when -alloc-sample is 0).
	AllocsPerCachedHit *float64 `json:"allocs_per_cached_hit,omitempty"`

	// Healthz counts the degrade-ladder levels GET /healthz reported while
	// the load ran; Reasons is the last non-empty reason list observed.
	Healthz        map[string]int64 `json:"healthz_samples"`
	HealthzReasons []string         `json:"healthz_reasons,omitempty"`

	Gates []gateResult `json:"gates"`
}

type reportConfig struct {
	Concurrency int            `json:"concurrency"`
	Duration    string         `json:"duration"`
	Mix         map[string]int `json:"mix"`
	ColdList    string         `json:"cold_list"`
	Seed        int64          `json:"seed"`
	Selfserve   bool           `json:"selfserve"`
	Workers     int            `json:"workers,omitempty"`
	Queue       int            `json:"queue,omitempty"`
}

func buildReport(cfg harnessConfig, col *collector, elapsed time.Duration) *loadReport {
	col.mu.Lock()
	defer col.mu.Unlock()
	r := &loadReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Target:      cfg.addr,
		Config: reportConfig{
			Concurrency: cfg.concurrency,
			Duration:    cfg.duration.String(),
			Mix:         cfg.mix,
			ColdList:    cfg.coldList,
			Seed:        cfg.seed,
			Selfserve:   cfg.selfserve,
		},
		DurationSeconds: elapsed.Seconds(),
		Classes:         make(map[string]classReport, len(col.counts)),
		Healthz:         col.healthz,
		HealthzReasons:  col.reasons,
	}
	if cfg.selfserve {
		r.Target = "selfserve"
		r.Config.Workers = cfg.workers
		r.Config.Queue = cfg.queue
	}
	for class, cc := range col.counts {
		cr := summarize(cc.latencyMS)
		cr.Requests = cc.requests
		cr.Success = cc.success
		cr.Shed = cc.shed
		cr.Errors = cc.errors
		cr.Incomplete = cc.incomplete
		r.Classes[class] = cr
		r.Totals.Requests += cc.requests
		r.Totals.Success += cc.success
		r.Totals.Shed += cc.shed
		r.Totals.Errors += cc.errors
		r.Totals.Incomplete += cc.incomplete
	}
	if elapsed > 0 {
		r.Totals.RPS = float64(r.Totals.Requests) / elapsed.Seconds()
	}
	return r
}

// evaluateGates appends the configured SLO gate verdicts to the report.
func (r *loadReport) evaluateGates(cfg harnessConfig) {
	gate := func(name string, ok bool, format string, args ...any) {
		r.Gates = append(r.Gates, gateResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	if cfg.maxShed >= 0 {
		gate("max-shed", r.Totals.Shed <= cfg.maxShed,
			"%d sheds observed, cap %d", r.Totals.Shed, cfg.maxShed)
	}
	if cfg.minShed >= 0 {
		gate("min-shed", r.Totals.Shed >= cfg.minShed,
			"%d sheds observed, floor %d", r.Totals.Shed, cfg.minShed)
	}
	for _, class := range []string{classCacheHit, classCold, classSimulate, classVerify} {
		floor, ok := cfg.minClassSuccess[class]
		if !ok {
			continue
		}
		cr := r.Classes[class]
		ratio := cr.successRatio()
		gate("min-class-success:"+class, ratio >= floor,
			"success ratio %.4f (success %d of %d eligible), floor %.4f",
			ratio, cr.Success, cr.Requests-cr.Shed-cr.Incomplete, floor)
	}
	if cfg.maxCachedRatio > 0 && cfg.baseline != "" {
		base, err := readBaselineCachedP99(cfg.baseline)
		switch {
		case err != nil:
			gate("cached-p99-ratio", false, "baseline %s: %v", cfg.baseline, err)
		default:
			cur := r.Classes[classCacheHit].P99ms
			cap := base * cfg.maxCachedRatio
			floorMS := float64(cfg.cachedFloor) / float64(time.Millisecond)
			if cap < floorMS {
				cap = floorMS
			}
			gate("cached-p99-ratio", cur <= cap,
				"cachehit p99 %.2fms vs baseline %.2fms: cap %.2fms (ratio %.1f, floor %s)",
				cur, base, cap, cfg.maxCachedRatio, cfg.cachedFloor)
		}
	}
}

// readBaselineCachedP99 pulls the cachehit p99 out of a previous report.
func readBaselineCachedP99(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var base loadReport
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Errorf("bad baseline report: %v", err)
	}
	cr, ok := base.Classes[classCacheHit]
	if !ok {
		return 0, fmt.Errorf("baseline report has no %q class", classCacheHit)
	}
	return cr.P99ms, nil
}
