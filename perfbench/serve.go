package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"time"

	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/service"
)

// rates are the open-loop arrival rates of a serve workload, per second.
type rates struct {
	Hit  float64 `json:"hit"`
	Cold float64 `json:"cold"`
	Sync float64 `json:"sync"`
}

// serveRates fixes each serve workload's traffic. serve-hot is cache hits
// only. serve-mixed adds cold generations and synchronous simulations. One
// cold generation a second keeps a job worker busy about a third of the
// time on a 2-CPU machine; 2.5 a second already draws admission sheds
// there, and the workload must shed nothing.
var serveRates = map[string]rates{
	"serve-hot":   {Hit: 60},
	"serve-mixed": {Hit: 40, Cold: 1.0, Sync: 8},
}

// Latency limits for goodput: an operation counts only if it succeeded
// within its class's limit.
var classLimit = map[string]time.Duration{
	"hit":  50 * time.Millisecond,
	"sync": 250 * time.Millisecond,
	"miss": 2 * time.Second,
}

const (
	loadConns  = 2                    // connections and load goroutines (= nproc of the reference machine)
	pollEvery  = 5 * time.Millisecond // job poll interval of a cold generate
	dupAfter   = 3 * time.Millisecond // gap before a duplicate cold request
	dupEvery   = 4                    // every fourth cold request is sent twice
	opDeadline = 20 * time.Second     // a cold job not done by then is incomplete
	setupLimit = 120 * time.Second    // bound on one prewarm
	syncBody   = `{"march":{"name":"March SL"},"list":"list1"}`
	syncPath   = "/v1/simulate"
	coldPrefix = "March COLD"
)

// hitKind is one cached request the hit stream replays.
type hitKind struct {
	name, path, body string
	weight           float64
}

// hitKinds are weighted so that list1 and verify hits, which rebuild or
// digest List #1 on every request, make up 70% of the stream: the median
// then sits well inside that group instead of on the edge between the
// sub-millisecond hits and the List #1 ones, where the mix alone would
// move it.
var hitKinds = []hitKind{
	{"list1", "/v1/generate", `{"list":"list1"}`, 5},
	{"list2", "/v1/generate", `{"list":"list2"}`, 1.5},
	{"simple", "/v1/generate", `{"list":"simple"}`, 0.75},
	{"dynamic", "/v1/generate", `{"list":"dynamic"}`, 0.75},
	{"verify", "/v1/verify", `{"march":{"name":"March SL"},"list":"list1"}`, 2},
}

var coldLists = []string{"list1", "dynamic"}

// op is one logical client operation: a hit, a synchronous simulation, or
// a cold generate that is posted and then polled to completion.
type op struct {
	class string // "hit", "sync" or "miss"
	kind  string // hit kind or cold list
	path  string
	body  string
	due   time.Time // scheduled send time of the first exchange

	poll     string
	deadline time.Time

	done     time.Time
	fail     string
	svc      time.Duration // first exchange: send to last byte
	ttfb     time.Duration
	spec     string // cold: the generated test's spec
	created  time.Time
	started  time.Time
	finished time.Time
	root     int64 // span id of the operation (traced runs)
}

// server is an in-process marchd on a loopback listener.
type server struct {
	svc  *service.Server
	hs   *http.Server
	base string
	errc chan error
}

func startServer(dataDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{DataDir: dataDir})
	s := &server{svc: svc, hs: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { s.errc <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if jerr := s.svc.Shutdown(ctx); err == nil {
		err = jerr
	}
	return err
}

// serveWorkload drives an in-process marchd with an open loop of seeded
// arrivals over loadConns connections.
type serveWorkload struct {
	name    string
	rates   rates
	srv     *server
	seed    int64
	windows int64 // windows scheduled so far; each draws its own arrivals
	colds   int   // cold requests scheduled so far

	prewarmed map[string][]byte // hit kind -> body every hit must repeat
	syncRef   []byte
	ops       []*op
	clients   []*http.Client
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func (w *serveWorkload) setup(b *bench) (float64, error) {
	w.seed = b.seed
	var times []float64
	for i := 0; i < setupReps; i++ {
		w.close()
		start := cpuNow()
		if err := w.start(b); err != nil {
			return 0, err
		}
		times = append(times, (cpuNow() - start).Seconds())
	}
	return median(times), nil
}

// start boots a server, prewarms its cache and opens the load clients.
func (w *serveWorkload) start(b *bench) error {
	srv, err := startServer(b.tmp)
	if err != nil {
		return err
	}
	w.srv = srv
	if err := w.prewarm(); err != nil {
		return err
	}
	w.clients = nil
	for i := 0; i < loadConns; i++ {
		w.clients = append(w.clients, newClient())
	}
	return nil
}

// prewarm fills the cache with every hit kind and records the bodies the
// hit stream must repeat byte for byte.
func (w *serveWorkload) prewarm() error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	w.prewarmed = map[string][]byte{}
	for _, k := range hitKinds {
		status, _, body, err := post(hc, w.srv.base+k.path, k.body, nil)
		if err != nil {
			return err
		}
		if status == http.StatusAccepted {
			var acc struct {
				Poll string `json:"poll"`
			}
			if err := json.Unmarshal(body, &acc); err != nil {
				return fmt.Errorf("prewarm %s: %w", k.name, err)
			}
			if _, err := waitJob(hc, w.srv.base+acc.Poll, time.Now().Add(setupLimit)); err != nil {
				return fmt.Errorf("prewarm %s: %w", k.name, err)
			}
		} else if status != http.StatusOK {
			return fmt.Errorf("prewarm %s: HTTP %d", k.name, status)
		}
		status, hdr, body, err := post(hc, w.srv.base+k.path, k.body, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			return fmt.Errorf("prewarm %s: second request answered %d X-Cache=%q", k.name, status, hdr.Get("X-Cache"))
		}
		w.prewarmed[k.name] = body
	}
	if w.rates.Sync > 0 {
		status, _, body, err := post(hc, w.srv.base+syncPath, syncBody, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("prewarm simulate: HTTP %d", status)
		}
		w.syncRef = body
	}
	return nil
}

// schedule draws the window's arrivals from the seed. Hits get exactly
// rate*window arrivals at independent uniform times, which is a Poisson
// process conditioned on its count, so every seed offers the same load.
func (w *serveWorkload) schedule(start time.Time, window time.Duration) []*task {
	w.windows++
	rng := rand.New(rand.NewSource(w.seed*1000003 + w.windows))
	at := func() time.Time { return start.Add(time.Duration(rng.Int63n(int64(window)))) }
	var total float64
	for _, k := range hitKinds {
		total += k.weight
	}
	var tasks []*task
	add := func(o *op) { tasks = append(tasks, &task{due: o.due, op: o}) }
	// Each hit kind gets its exact share of the arrivals, so the mix, too,
	// is the same for every seed.
	nHits := int(w.rates.Hit * window.Seconds())
	for _, k := range hitKinds {
		for i := 0; i < int(float64(nHits)*k.weight/total+0.5); i++ {
			add(&op{class: "hit", kind: k.name, path: k.path, body: k.body, due: at()})
		}
	}
	// Cold generations and simulations are few per window, so Poisson
	// clustering of them would move the figures more than the program
	// does: they arrive one per equal slot of the window, at a seeded
	// uniform time within it. Cold lists alternate, and every dupEvery-th
	// cold request is sent twice.
	slotted := func(n, i int) time.Time {
		slot := window / time.Duration(n)
		return start.Add(slot*time.Duration(i) + time.Duration(rng.Int63n(int64(slot))))
	}
	nCold := int(w.rates.Cold * window.Seconds())
	for i := 0; i < nCold; i++ {
		// Counting colds across windows keeps the duplicates coming when a
		// traced run splits its window into parts with few colds each.
		w.colds++
		list := coldLists[w.colds%len(coldLists)]
		body := fmt.Sprintf(`{"list":%q,"options":{"name":"%s %d-%d"}}`, list, coldPrefix, w.seed, w.colds)
		o := &op{class: "miss", kind: list, path: "/v1/generate", body: body, due: slotted(nCold, i)}
		add(o)
		if w.colds%dupEvery == 0 {
			add(&op{class: "miss", kind: list, path: o.path, body: body, due: o.due.Add(dupAfter)})
		}
	}
	nSync := int(w.rates.Sync * window.Seconds())
	for i := 0; i < nSync; i++ {
		add(&op{class: "sync", kind: "march-sl", path: syncPath, body: syncBody, due: slotted(nSync, i)})
	}
	return tasks
}

// counters is a /metrics scrape of the fields the benchmark compares.
type counters struct {
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	Sheds       map[string]int64 `json:"sheds_by_class"`
	Runtime     struct {
		Mallocs uint64 `json:"mallocs"`
		NumGC   uint32 `json:"num_gc"`
	} `json:"runtime"`
}

func (c counters) sheds() int64 {
	var n int64
	for _, v := range c.Sheds {
		n += v
	}
	return n
}

func (w *serveWorkload) scrape() (counters, error) {
	var c counters
	resp, err := w.clients[0].Get(w.srv.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// clientCache counts cache outcomes as the client sees them.
type clientCache struct {
	mu                    sync.Mutex
	hits, newJobs, joined int
	jobs                  map[string]bool
}

func (w *serveWorkload) measure(b *bench, window time.Duration, tr *tracer) (*phase, error) {
	before, err := w.scrape()
	if err != nil {
		return nil, err
	}
	cpuStart := cpuNow()
	start := time.Now().Add(20 * time.Millisecond)
	tasks := w.schedule(start, window)
	cc := &clientCache{jobs: map[string]bool{}}
	var late []float64
	var lateMu sync.Mutex
	runOpenLoop(tasks, loadConns, func(worker int, t *task) []*task {
		if t.op.poll == "" {
			lateMu.Lock()
			late = append(late, ms(t.sent.Sub(t.due)))
			lateMu.Unlock()
		}
		return w.exec(w.clients[worker], t, cc, tr)
	})
	end, cpuEnd := time.Now(), cpuNow()
	after, err := w.scrape()
	if err != nil {
		return nil, err
	}

	p := &phase{elapsed: end.Sub(start), cpuTime: cpuEnd - cpuStart}
	if window < p.elapsed {
		// Goodput is over the offered window; the drain of the last polls
		// after it is not idle time of the system under test.
		p.elapsed = window
	}
	byClass := map[string][]float64{}
	var ops []*op
	for _, t := range tasks {
		o := t.op
		ops = append(ops, o)
		p.attempted++
		if o.fail != "" {
			p.failed++
			continue
		}
		lat := o.done.Sub(o.due)
		byClass[o.class] = append(byClass[o.class], ms(lat))
		if lat <= classLimit[o.class] {
			p.good++
		}
	}
	w.ops = append(w.ops, ops...)
	p.lat = byClass["hit"]
	// Requests overlap in an open loop, so CPU time has no per-request
	// samples: the one sample is the process's CPU time (client, server
	// and jobs) per request over the window.
	p.cpu = []float64{ms(p.cpuTime) / float64(p.attempted)}
	p.medians, p.tails, p.tailPct = subWindowStats(ops, start, window)
	for _, k := range hitKinds {
		if k.path == "/v1/generate" {
			p.testLen += specLength(bodySpec(w.prewarmed[k.name]))
		}
	}

	for _, class := range []string{"hit", "miss", "sync"} {
		if xs := byClass[class]; len(xs) > 0 {
			t, pct, _ := tail(xs)
			b.note("%s %s_p50_ms = %.3f ms, %s_tail_ms = %.3f ms (p%.2f of %d)", w.name, class, median(xs), class, t, pct, len(xs))
		}
	}
	b.note("%s goodput_rps = %.3f 1/s over %.1f s", w.name, float64(p.good)/p.elapsed.Seconds(), p.elapsed.Seconds())
	sheds := after.sheds() - before.sheds()
	overcount := (after.CacheMisses - before.CacheMisses) - int64(cc.newJobs)
	b.note("%s cache: client X-Cache hits %d, new jobs %d, joined jobs %d; server cache_hits %+d, cache_misses %+d; service.miss_overcount = %d; sheds %d",
		w.name, cc.hits, cc.newJobs, cc.joined, after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses, overcount, sheds)

	if tr != nil {
		w.layerMetrics(b, ops, late, before, after, overcount)
		if err := w.mallocsPerHit(b); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// subWindows is the number of equal sub-windows whose hit medians and
// tails are reported by their median: on a shared machine, a slow second
// (or a burst of cold work) then moves one of ten values, not the figure.
const subWindows = 10

// subWindowStats returns the hit median and the hit tail of each
// sub-window of the schedule, the tails all at one percentile: the highest
// the smallest sub-window supports.
func subWindowStats(ops []*op, start time.Time, window time.Duration) (medians, tails []float64, pct float64) {
	lat := make([][]float64, subWindows)
	for _, o := range ops {
		if o.class != "hit" || o.fail != "" {
			continue
		}
		i := min(int(int64(o.due.Sub(start))*subWindows/int64(window)), subWindows-1)
		lat[i] = append(lat[i], ms(o.done.Sub(o.due)))
	}
	n := len(lat[0])
	for _, xs := range lat {
		n = min(n, len(xs))
	}
	pct, ok := tailPct(n)
	if !ok {
		return nil, nil, 0
	}
	for _, xs := range lat {
		medians = append(medians, median(xs))
		tails = append(tails, quantile(xs, pct))
	}
	return medians, tails, pct
}

// mallocsPerHit replays sequential hits after the window and divides the
// process's malloc count delta by the number of hits. The client runs in
// the same process, so its allocations are included.
func (w *serveWorkload) mallocsPerHit(b *bench) error {
	const n = 50
	for _, k := range hitKinds[:2] {
		before, err := w.scrape()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			status, _, _, err := post(w.clients[0], w.srv.base+k.path, k.body, nil)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("malloc sample %s: HTTP %d", k.name, status)
			}
		}
		after, err := w.scrape()
		if err != nil {
			return err
		}
		b.setLayer("service.mallocs_per_hit."+k.name, float64(after.Runtime.Mallocs-before.Runtime.Mallocs)/n)
	}
	return nil
}

// layerMetrics derives the service-side per-layer metrics of one traced
// window from its spans, job snapshots and /metrics deltas.
func (w *serveWorkload) layerMetrics(b *bench, ops []*op, late []float64, before, after counters, overcount int64) {
	for _, k := range []string{"list1", "list2", "verify"} {
		var xs []float64
		for _, o := range ops {
			if o.class == "hit" && o.kind == k && o.fail == "" {
				xs = append(xs, ms(o.svc))
			}
		}
		if len(xs) > 0 {
			b.setLayer("service.hit_ms."+k, median(xs))
		}
	}
	var ttfb, qwait, run, pollOver []float64
	for _, o := range ops {
		if o.fail != "" {
			continue
		}
		if o.class == "hit" {
			ttfb = append(ttfb, ms(o.ttfb))
		}
		if o.class == "miss" && !o.started.IsZero() {
			qwait = append(qwait, ms(o.started.Sub(o.created)))
			run = append(run, ms(o.finished.Sub(o.started)))
			pollOver = append(pollOver, ms(o.done.Sub(o.finished)))
		}
	}
	if len(ttfb) > 0 {
		b.setLayer("service.ttfb_ms", median(ttfb))
	}
	if len(qwait) > 0 {
		b.setLayer("service.queue_wait_ms", median(qwait))
		b.setLayer("service.job_run_ms", median(run))
		b.setLayer("service.poll_overhead_ms", median(pollOver))
		b.setLayer("service.miss_overcount", float64(overcount))
	}
	b.setLayer("service.gc_per_1k_req", 1000*float64(after.Runtime.NumGC-before.Runtime.NumGC)/float64(len(ops)))
	b.setLayer("service.sheds", float64(after.sheds()-before.sheds()))
	if t, _, _ := tail(late); len(late) > 0 {
		b.setLayer("bench.late_ms", t)
	}
}

// exec performs one exchange of an operation and returns its follow-up
// (the next poll of a cold generate), if any.
func (w *serveWorkload) exec(hc *http.Client, t *task, cc *clientCache, tr *tracer) []*task {
	o := t.op
	if o.root == 0 && tr != nil {
		o.root = tr.newID()
	}
	if o.poll != "" {
		return w.pollOnce(hc, o, tr)
	}
	var ht *httpTiming
	if tr != nil {
		ht = &httpTiming{}
	}
	sent := time.Now()
	status, hdr, body, err := post(hc, w.srv.base+o.path, o.body, ht)
	now := time.Now()
	o.svc = now.Sub(sent)
	if ht != nil {
		o.ttfb = ht.firstByte.Sub(ht.wrote)
		tr.add(span{Name: "http.post." + o.class, Parent: o.root, Req: o.root, Start: sent, End: now})
	}
	if err != nil {
		return w.finish(o, now, "transport: "+err.Error(), tr)
	}
	switch {
	case status == http.StatusTooManyRequests:
		return w.finish(o, now, "shed", tr)
	case o.class == "hit":
		cc.count(hdr.Get("X-Cache"), "")
		if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			return w.finish(o, now, fmt.Sprintf("hit answered %d X-Cache=%q", status, hdr.Get("X-Cache")), tr)
		}
		if !bytes.Equal(body, w.prewarmed[o.kind]) {
			return w.finish(o, now, "hit body differs from its prewarmed body", tr)
		}
		return w.finish(o, now, "", tr)
	case o.class == "sync":
		if status != http.StatusOK || !bytes.Equal(body, w.syncRef) {
			return w.finish(o, now, fmt.Sprintf("simulate answered %d or a different body", status), tr)
		}
		return w.finish(o, now, "", tr)
	}
	if status != http.StatusAccepted {
		return w.finish(o, now, fmt.Sprintf("cold generate answered %d", status), tr)
	}
	var acc struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
		Poll string `json:"poll"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.Poll == "" {
		return w.finish(o, now, "bad 202 body", tr)
	}
	cc.count(hdr.Get("X-Cache"), acc.Job.ID)
	o.poll, o.deadline = acc.Poll, o.due.Add(opDeadline)
	return []*task{{due: now.Add(pollEvery), op: o}}
}

// count records one answer's cache outcome: a hit, a 202 that created a
// job, or a 202 that joined a job an earlier request created.
func (c *clientCache) count(xcache, jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case xcache == "hit":
		c.hits++
	case jobID == "":
	case c.jobs[jobID]:
		c.joined++
	default:
		c.jobs[jobID] = true
		c.newJobs++
	}
}

// jobSnap is the part of a job snapshot the benchmark reads.
type jobSnap struct {
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

func (w *serveWorkload) pollOnce(hc *http.Client, o *op, tr *tracer) []*task {
	sent := time.Now()
	snap, err := getJob(hc, w.srv.base+o.poll)
	now := time.Now()
	if tr != nil {
		tr.add(span{Name: "http.poll", Parent: o.root, Req: o.root, Start: sent, End: now})
	}
	if err != nil {
		return w.finish(o, now, err.Error(), tr)
	}
	switch snap.Status {
	case "done":
		o.created, o.started, o.finished = snap.Created, snap.Started, snap.Finished
		o.spec = bodySpec(snap.Result)
		return w.finish(o, now, "", tr)
	case "failed", "canceled":
		return w.finish(o, now, "job "+snap.Status+": "+snap.Error, tr)
	}
	if now.After(o.deadline) {
		return w.finish(o, now, "incomplete", tr)
	}
	return []*task{{due: now.Add(pollEvery), op: o}}
}

func (w *serveWorkload) finish(o *op, now time.Time, fail string, tr *tracer) []*task {
	o.done, o.fail = now, fail
	if tr != nil {
		tr.add(span{ID: o.root, Name: "bench.op", Req: o.root, Start: o.due, End: now})
	}
	return nil
}

// check compares every cold result with a direct generation of its list.
// Hits and simulations were compared with their reference bodies as they
// arrived.
func (w *serveWorkload) check(b *bench) (int, error) {
	refs := map[string]string{}
	wrong := 0
	for _, o := range w.ops {
		if o.class != "miss" || o.fail != "" {
			continue
		}
		ref, ok := refs[o.kind]
		if !ok {
			faults, _ := faultlist.ByName(o.kind) // coldLists holds known names
			res, err := core.Generate(faults, core.Options{Name: coldPrefix})
			if err != nil {
				return 0, err
			}
			ref = res.Test.ASCII()
			refs[o.kind] = ref
		}
		if o.spec != ref {
			wrong++
			o.fail = "cold result differs from a direct generation"
		}
	}
	fails := map[string]int{}
	for _, o := range w.ops {
		if o.fail != "" {
			fails[o.fail]++
		}
	}
	reasons := make([]string, 0, len(fails))
	for r, n := range fails {
		reasons = append(reasons, fmt.Sprintf("%dx %s", n, r))
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		b.note("%s failure: %s", w.name, r)
	}
	return wrong, nil
}

func (w *serveWorkload) close() {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.srv != nil {
		_ = w.srv.stop() // end of run: the result is already printed or failed
		w.srv = nil
	}
}

// httpTiming collects the httptrace edges of one exchange.
type httpTiming struct{ wrote, firstByte time.Time }

func post(hc *http.Client, url, body string, ht *httpTiming) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ht != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { ht.wrote = time.Now() },
			GotFirstResponseByte: func() { ht.firstByte = time.Now() },
		}))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

func getJob(hc *http.Client, url string) (jobSnap, error) {
	var snap jobSnap
	resp, err := hc.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET job: HTTP %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// waitJob polls a job until it is done or the deadline passes.
func waitJob(hc *http.Client, url string, deadline time.Time) (jobSnap, error) {
	for {
		snap, err := getJob(hc, url)
		if err != nil {
			return snap, err
		}
		switch snap.Status {
		case "done":
			return snap, nil
		case "failed", "canceled":
			return snap, fmt.Errorf("job %s: %s", snap.Status, snap.Error)
		}
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("job not done by its deadline")
		}
		time.Sleep(pollEvery)
	}
}

// bodySpec extracts test.spec from a generate result document.
func bodySpec(doc []byte) string {
	var r struct {
		Test struct {
			Spec string `json:"spec"`
		} `json:"test"`
	}
	if json.Unmarshal(doc, &r) != nil {
		return ""
	}
	return r.Test.Spec
}
