package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"marchgen"
	"marchgen/internal/optimize"
)

// encodeErrorRecorder is implemented by statusWriter: writeJSON reports
// encode failures through it so the route layer can log and count them.
type encodeErrorRecorder interface {
	recordEncodeError(error)
}

// headerWrittenChecker is implemented by statusWriter: writeJSON consults
// it so a response whose status line is already out (a client
// disconnecting mid-write can bounce an error path back into a second
// write attempt) never gets a second, superfluous status line.
type headerWrittenChecker interface {
	headerWritten() bool
}

// writeJSON marshals v as the response body with the given status. If a
// status line already went out on this response, nothing is written — a
// second WriteHeader would be a protocol violation — and the dropped
// status is recorded as an encode error instead. When the encode itself
// fails, the status line is already out and the response cannot be
// repaired, but the failure is not dropped either: it is recorded on the
// response writer, logged through the structured request log and counted
// in /metrics as response_encode_errors.
func writeJSON(w http.ResponseWriter, status int, v any) {
	if hw, ok := w.(headerWrittenChecker); ok && hw.headerWritten() {
		if rec, ok := w.(encodeErrorRecorder); ok {
			rec.recordEncodeError(fmt.Errorf("status %d dropped: response already started", status))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		if rec, ok := w.(encodeErrorRecorder); ok {
			rec.recordEncodeError(err)
		}
	}
}

// writeRaw sends pre-marshaled JSON bytes verbatim (the cache-hit path:
// byte-identical responses).
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeShed answers an admission refusal: HTTP 429 with the controller's
// drain-rate-derived, jittered Retry-After (whole seconds — the header's
// granularity).
func writeShed(w http.ResponseWriter, shed *shedError) {
	w.Header().Set("Retry-After", strconv.Itoa(int(shed.retryAfter/time.Second)))
	writeError(w, http.StatusTooManyRequests, "%v", shed)
}

// requestTimeout resolves a request's effective deadline: the body's
// timeout_ms tightened by an X-Deadline header, which accepts a Go
// duration ("1.5s") or a bare integer millisecond count. 0 means the
// server's maximum applies. The deadline propagates into the job context,
// so an abandoned client's work stops burning workers at its deadline.
func requestTimeout(r *http.Request, bodyMS int64) (time.Duration, error) {
	d := time.Duration(bodyMS) * time.Millisecond
	h := r.Header.Get("X-Deadline")
	if h == "" {
		return d, nil
	}
	hd, err := time.ParseDuration(h)
	if err != nil {
		ms, merr := strconv.ParseInt(h, 10, 64)
		if merr != nil {
			return 0, fmt.Errorf("bad X-Deadline %q: want a duration like \"30s\" or integer milliseconds", h)
		}
		hd = time.Duration(ms) * time.Millisecond
	}
	if hd <= 0 {
		return 0, fmt.Errorf("bad X-Deadline %q: must be positive", h)
	}
	if d <= 0 || hd < d {
		d = hd
	}
	return d, nil
}

// writeSubmitError finishes an async submit's error path: admission sheds
// answer 429 + Retry-After, engine backpressure (full queue, draining)
// answers 503, anything else 500.
func writeSubmitError(w http.ResponseWriter, err error) {
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		writeShed(w, shed)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// decodeBody strictly decodes the request body into v: unknown fields and
// trailing garbage are client errors, reported with a 400 by the caller.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra any
	if dec.Decode(&extra) == nil {
		return errors.New("request body holds more than one JSON document")
	}
	return nil
}

// asyncWork is what an asynchronous endpoint's prepare step hands the
// shared route: the admission class of its jobs, the key document whose
// content address caches the result, and the job computing the result
// document (which embeds its own key).
type asyncWork struct {
	class admitClass
	key   any
	run   func(ctx context.Context, key string) ([]byte, error)
}

// asyncRequest is an asynchronous request body: every one embeds
// jobDeadline.
type asyncRequest interface{ deadlineMS() int64 }

// asyncRoute is the one pipeline of the asynchronous endpoints (generate,
// verify, optimize, diagnose): strict decode, the endpoint's prepare
// (resolve and canonicalize; its errors are the client's, 400), one
// content key, then the cache. It answers 200 with the cached document for
// the key, or joins the job already computing the key, or submits the
// prepared job; a joined or new job answers 202 with its poll location.
// Each 200 or 202 answer counts exactly once, as a cache hit, a coalesced
// join or a miss, and a miss is a request that created a job, so
// cache_misses moves in lockstep with jobs_submitted.
func asyncRoute[Req asyncRequest](s *Server, prepare func(Req) (asyncWork, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeBody(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		work, err := prepare(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key, err := contentKey(work.key)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if body, ok := s.cache.Get(key); ok {
			s.writeHit(w, body)
			return
		}
		w.Header().Set("X-Cache", "miss")
		timeout, err := requestTimeout(r, req.deadlineMS())
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		j, body, outcome, err := s.lookupOrSubmit(work.class, key, timeout, func(ctx context.Context) ([]byte, error) {
			body, err := work.run(ctx, key)
			if err != nil {
				return nil, err
			}
			// Stored before the job turns terminal, so lookupOrSubmit can
			// answer a finished job's key from the cache.
			s.cache.Put(key, body)
			return body, nil
		})
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		if outcome == cacheHit {
			s.writeHit(w, body)
			return
		}
		s.metrics.cache(outcome)
		if outcome == cacheMiss {
			s.metrics.jobSubmitted()
		}
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, struct {
			Job  Job    `json:"job"`
			Poll string `json:"poll"`
		}{j.snapshot(false), "/v1/jobs/" + j.id})
	}
}

// writeHit answers a request from the result cache with the stored bytes.
func (s *Server) writeHit(w http.ResponseWriter, body []byte) {
	s.metrics.cache(cacheHit)
	w.Header().Set("X-Cache", "hit")
	writeRaw(w, http.StatusOK, body)
}

// prepareGenerate is POST /v1/generate: generate a march test covering the
// fault list.
func (s *Server) prepareGenerate(req generateRequest) (asyncWork, error) {
	faults, err := req.resolve()
	if err != nil {
		return asyncWork{}, fmt.Errorf("bad fault spec: %w", err)
	}
	var opts marchgen.Options
	if req.Options != nil {
		opts = *req.Options
	}
	opts = opts.Canonical()
	return asyncWork{classGenerate, generateKeyDoc(faults, opts), func(ctx context.Context, key string) ([]byte, error) {
		start := time.Now()
		res, err := marchgen.GenerateContext(ctx, faults, opts)
		if err != nil {
			return nil, err
		}
		body, err := marshalGenerateResult(res, opts, key)
		if err != nil {
			return nil, err
		}
		s.metrics.observeGenerate(time.Since(start))
		return body, nil
	}}, nil
}

// prepareVerify is POST /v1/verify: differential cross-check of a march
// test against a fault list — the production simulator (internal/sim)
// versus the independent reference oracle (internal/oracle). The
// cross-check costs two full exhaustive simulations, hence a job. The
// result lists every divergence; an empty list means bit-for-bit
// agreement.
func (s *Server) prepareVerify(req verifyRequest) (asyncWork, error) {
	test, err := req.March.resolve()
	if err != nil {
		return asyncWork{}, fmt.Errorf("bad march spec: %w", err)
	}
	faults, err := req.resolve()
	if err != nil {
		return asyncWork{}, fmt.Errorf("bad fault spec: %w", err)
	}
	cfg := req.simConfig().Canonical()
	return asyncWork{classVerify, verifyKeyDoc(test, faults, cfg), func(ctx context.Context, key string) ([]byte, error) {
		diffs := marchgen.CrossCheck(test, faults, cfg)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wordAxis, err := crossCheckWordAxis(ctx, test, cfg.Width)
		if err != nil {
			return nil, err
		}
		mportAxis, err := crossCheckMportAxis(ctx, test, cfg.Ports)
		if err != nil {
			return nil, err
		}
		return marshalVerifyResult(test, len(faults), cfg, diffs, wordAxis, mportAxis, key)
	}}, nil
}

// prepareOptimize is POST /v1/optimize: search for a shorter full-coverage
// march test starting from a seed (an explicit test or a server-generated
// one). An improved winner also lands in the runtime march library (with
// provenance), where /v1/library exposes it.
func (s *Server) prepareOptimize(req optimizeRequest) (asyncWork, error) {
	faults, err := req.resolve()
	if err != nil {
		return asyncWork{}, fmt.Errorf("bad fault spec: %w", err)
	}
	seedTest, opts, err := req.options()
	if err != nil {
		return asyncWork{}, fmt.Errorf("bad march spec: %w", err)
	}
	return asyncWork{classOptimize, optimizeKeyDoc(faults, seedTest, opts), func(ctx context.Context, key string) ([]byte, error) {
		lastEvals := 0
		opts.OnProgress = func(p marchgen.OptimizeProgress) {
			s.metrics.optimizeProgress(int64(p.Evaluations - lastEvals))
			lastEvals = p.Evaluations
		}
		res, err := marchgen.OptimizeContext(ctx, faults, opts)
		if err != nil {
			return nil, err
		}
		s.metrics.optimizeProgress(int64(res.Stats.Evaluations - lastEvals))
		s.metrics.optimizeDone(res.Stats.Improved)
		optimize.Land(res)
		return marshalOptimizeResult(res, key)
	}}, nil
}

// handleJobGet is GET /v1/jobs/{id}: the job snapshot, with the result
// document inlined once the job is done.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(true))
}

// handleJobResult is GET /v1/jobs/{id}/result: the raw result document of
// a done job — the exact bytes the cache serves, so polling clients and
// cache-hit clients see identical output.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	snap := j.snapshot(true)
	switch snap.Status {
	case JobDone:
		writeRaw(w, http.StatusOK, snap.Result)
	case JobFailed, JobCanceled:
		writeError(w, http.StatusGone, "job %s %s: %s", snap.ID, snap.Status, snap.Error)
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job %s is %s; poll /v1/jobs/%s", snap.ID, snap.Status, snap.ID)
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel a queued or running job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(false))
}

// syncWork computes a synchronous endpoint's response document. Its errors
// are request-shaped (the march test or config cannot express the fault
// list) and answer 422.
type syncWork func(ctx context.Context) (any, error)

// syncRoute is the one pipeline of the synchronous endpoints (simulate,
// detects): strict decode, the endpoint's prepare (400 on error), then the
// shared tail — X-Deadline validation, one simulate-class admission slot,
// and the work raced against the deadline.
func syncRoute[Req any](s *Server, prepare func(Req) (syncWork, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeBody(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		work, err := prepare(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The work context is the request's, which http.TimeoutHandler
		// already bounds by the server's sync timeout, tightened by
		// X-Deadline when the client sends one.
		deadline, err := requestTimeout(r, 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ctx := r.Context()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		if shed := s.admit.acquire(classSimulate); shed != nil {
			s.metrics.shed(string(classSimulate))
			writeShed(w, shed)
			return
		}
		// The simulator has no context hook, so the deadline is enforced by
		// racing it: the goroutine owns the admission slot until the work
		// really finishes, even when the response has already gone out as 504
		// — abandoned work must keep counting against the class's concurrency.
		// A panic is carried back and re-raised here, where the route's
		// containment answers 500 and counts it.
		type outcome struct {
			doc      any
			err      error
			panicked any
		}
		ch := make(chan outcome, 1)
		go func() {
			defer s.admit.release(classSimulate)
			defer func() {
				if p := recover(); p != nil {
					ch <- outcome{panicked: fmt.Sprintf("%v\n%s", p, debug.Stack())}
				}
			}()
			doc, err := work(ctx)
			ch <- outcome{doc: doc, err: err}
		}()
		select {
		case <-ctx.Done():
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded before simulation finished")
		case out := <-ch:
			switch {
			case out.panicked != nil:
				panic(out.panicked)
			case out.err != nil:
				writeError(w, http.StatusUnprocessableEntity, "%v", out.err)
			default:
				writeJSON(w, http.StatusOK, out.doc)
			}
		}
	}
}

// prepareSimulate is POST /v1/simulate: fault simulation of a march test
// against a fault list.
func prepareSimulate(req simulateRequest) (syncWork, error) {
	test, err := req.March.resolve()
	if err != nil {
		return nil, fmt.Errorf("bad march spec: %w", err)
	}
	faults, err := req.resolve()
	if err != nil {
		return nil, fmt.Errorf("bad fault spec: %w", err)
	}
	cfg := req.simConfig()
	return func(ctx context.Context) (any, error) {
		report := marchgen.SimulateWith(test, faults, cfg)
		if err := report.Err(); err != nil {
			return nil, fmt.Errorf("simulation failed: %w", err)
		}
		// The axis sections (nil at width=1/ports=1, so pre-axis responses
		// keep their exact shape).
		word, err := marchgen.EvaluateWord(ctx, test, cfg.Width, false)
		if err != nil {
			return nil, fmt.Errorf("axis evaluation failed: %w", err)
		}
		mport, err := marchgen.EvaluateMport(ctx, test, cfg.Ports)
		if err != nil {
			return nil, fmt.Errorf("axis evaluation failed: %w", err)
		}
		return struct {
			Report  marchgen.Report       `json:"report"`
			Word    *marchgen.WordResult  `json:"word,omitempty"`
			Mport   *marchgen.MportResult `json:"mport,omitempty"`
			Summary string                `json:"summary"`
		}{report, word, mport, report.Summary()}, nil
	}, nil
}

// prepareDetects is POST /v1/detects: does the march test detect this one
// fault in every scenario?
func prepareDetects(req detectsRequest) (syncWork, error) {
	test, err := req.March.resolve()
	if err != nil {
		return nil, fmt.Errorf("bad march spec: %w", err)
	}
	if req.Fault == nil {
		return nil, errors.New("bad fault spec: request names no fault")
	}
	fault, cfg := *req.Fault, req.simConfig()
	return func(context.Context) (any, error) {
		detected, witness, err := marchgen.DetectsWith(test, fault, cfg)
		if err != nil {
			return nil, fmt.Errorf("simulation failed: %w", err)
		}
		out := struct {
			Fault    marchgen.Fault `json:"fault"`
			Detected bool           `json:"detected"`
			Witness  string         `json:"witness,omitempty"`
		}{fault, detected, ""}
		if witness != nil {
			out.Witness = witness.String()
		}
		return out, nil
	}, nil
}

// handleLibrary is GET /v1/library: the shipped march tests.
func (s *Server) handleLibrary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Tests []marchgen.March `json:"tests"`
	}{marchgen.Library()})
}

// handleFaultLists is GET /v1/faultlists: the named fault lists and their
// sizes.
func (s *Server) handleFaultLists(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Count int    `json:"count"`
	}
	var lists []entry
	for _, name := range marchgen.FaultListNames() {
		faults, err := marchgen.FaultListByName(name)
		if err != nil {
			continue // unreachable: Names and ByName are the same table
		}
		lists = append(lists, entry{Name: name, Count: len(faults)})
	}
	writeJSON(w, http.StatusOK, struct {
		Lists []entry `json:"lists"`
	}{lists})
}

// handleHealthz is GET /healthz: the degrade ladder. Status is
// ok | degraded | overloaded with the controller's reasons; the answer is
// always 200 (an overloaded service is still alive — load balancers that
// want to steer away read the body, not the status code). This endpoint
// and the other cheap reads (/v1/library, /v1/faultlists, cache hits, job
// polling, /metrics) are never admission-controlled: under overload the
// cheap path stays green.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	level, reasons := s.admit.pressure()
	writeJSON(w, http.StatusOK, struct {
		Status       string                   `json:"status"`
		Reasons      []string                 `json:"reasons,omitempty"`
		Classes      map[string]classSnapshot `json:"classes"`
		QueueDepth   int                      `json:"job_queue_depth"`
		CacheEntries int                      `json:"cache_entries"`
	}{level.String(), reasons, s.admit.snapshot(), s.jobs.Depth(), s.cache.Len()})
}

// handleMetrics is GET /metrics: the expvar-style counter snapshot, plus
// the fabric coordinator's counters when this instance runs one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.jobs.Depth(), s.cache.Len())
	level, _ := s.admit.pressure()
	snap.Pressure = level.String()
	snap.Admission = s.admit.snapshot()
	if s.fabric != nil {
		fc := s.fabric.Counters()
		snap.Fabric = &fc
	}
	writeJSON(w, http.StatusOK, snap)
}
