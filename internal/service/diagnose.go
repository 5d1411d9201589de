package service

import (
	"context"
	"fmt"

	"marchgen"
)

// prepareDiagnose is POST /v1/diagnose: adaptive fault localization from
// observed syndromes (Wang et al.). The request carries the fault-model
// space and the syndromes of the march tests a tester has executed; the
// result is the candidate set of fault instances consistent with every
// observation, and — while the set is still ambiguous — the follow-up march
// that best splits it (minimizing the largest surviving ambiguity class).
// The tester runs that march, appends the new syndrome, and re-posts; the
// loop converges to a singleton or goes stable.
//
// Localization simulates a signature per candidate instance per observation
// — generation-grade work — so the endpoint is asynchronous like
// /v1/generate.
func (s *Server) prepareDiagnose(req diagnoseRequest) (asyncWork, error) {
	faults, err := req.resolve()
	if err != nil {
		return asyncWork{}, fmt.Errorf("bad fault spec: %w", err)
	}
	obs, canon, err := req.resolveObservations()
	if err != nil {
		return asyncWork{}, fmt.Errorf("bad observations: %w", err)
	}
	cfg := req.simConfig().Canonical()
	return asyncWork{classDiagnose, diagnoseKeyDoc(faults, cfg, canon), func(ctx context.Context, key string) ([]byte, error) {
		cands, err := marchgen.DiagnoseLocalize(faults, obs, cfg)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next *marchgen.March
		if len(cands) > 1 {
			exclude := make(map[string]bool, len(obs))
			for _, o := range obs {
				exclude[o.Test.Name] = true
			}
			t, ok, err := marchgen.DiagnoseNextTest(cands, marchgen.Library(), exclude, cfg)
			if err != nil {
				return nil, err
			}
			if ok {
				next = &t
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		body, err := marshalDiagnoseResult(cands, next, len(obs), cfg, key)
		if err != nil {
			return nil, err
		}
		s.metrics.diagnoseDone(len(cands) == 1)
		return body, nil
	}}, nil
}
