package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"marchgen/internal/buildinfo"
	"marchgen/internal/campaign"
	"marchgen/internal/iofault"
	"marchgen/internal/store"
)

// Config tunes a Coordinator. The zero value is usable: every field has a
// default.
type Config struct {
	// Root is the campaign store root directory (default "campaigns").
	Root string
	// LeaseShards bounds how many shards one lease grant covers
	// (default 4).
	LeaseShards int
	// LeaseTTL is how long a lease lives without a heartbeat before its
	// unfinished shards return to the pending set (default 10s).
	LeaseTTL time.Duration
	// Version is this coordinator's build version for the join handshake
	// (default buildinfo.Version()).
	Version string
	// Schema is the spec-schema version for the join handshake
	// (default campaign.SpecSchema).
	Schema string
	// Now supplies the clock; tests inject a fake one. Default time.Now.
	Now func() time.Time
	// FS carries mutating store I/O for fault injection. Nil means the
	// real filesystem.
	FS iofault.FS
	// Logf, when set, receives protocol event logs.
	Logf func(format string, args ...any)
}

func (c Config) root() string {
	if c.Root == "" {
		return "campaigns"
	}
	return c.Root
}

func (c Config) leaseShards() int {
	if c.LeaseShards <= 0 {
		return 4
	}
	return c.LeaseShards
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL <= 0 {
		return 10 * time.Second
	}
	return c.LeaseTTL
}

func (c Config) version() string {
	if c.Version == "" {
		return buildinfo.Version()
	}
	return c.Version
}

func (c Config) schema() string {
	if c.Schema == "" {
		return campaign.SpecSchema
	}
	return c.Schema
}

// SubmitOptions tunes one distributed campaign. It has no fields: a
// campaign's records are a pure function of its spec, so there is nothing
// left to tune. The type stays so Submit's signature, and every caller
// that passes SubmitOptions{}, keeps compiling.
type SubmitOptions struct{}

// shard scheduling states. "done" means "never schedule again": the shard
// is committed or staged in the committer awaiting its plan-order turn.
const (
	shardPending = iota
	shardLeased
	shardDone
)

type lease struct {
	id       string
	worker   string
	session  *session
	from, to int // [from, to)
	expiry   time.Time
}

type session struct {
	id    string
	cm    *campaign.Committer
	plan  []campaign.Shard
	state []uint8
	// by credits each staged shard to the worker whose report was fresh.
	by     map[int]string
	leases map[string]*lease
	done   bool
}

func (s *session) remaining(l *lease) []int {
	var out []int
	for i := l.from; i < l.to; i++ {
		if s.state[i] != shardDone {
			out = append(out, i)
		}
	}
	return out
}

type workerState struct {
	id      string
	name    string
	version string
}

// Coordinator owns the fabric's server side: worker membership, the lease
// state machine of every submitted campaign, and the segment-journaled
// merge into each campaign's store. All methods are safe for concurrent
// use; the HTTP layer (Mux, internal/service) is a thin JSON shim over
// them.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	workers   map[string]*workerState
	nextID    int
	nextLease int
	sessions  map[string]*session
	order     []string // session ids in submission order
	counters  Counters
}

// NewCoordinator returns a coordinator with no workers and no campaigns.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:      cfg,
		workers:  make(map[string]*workerState),
		sessions: make(map[string]*session),
	}
}

func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Join runs the membership handshake. A version or schema mismatch is
// rejected with ErrSkew: distribution must never mix records across
// incompatible derivations.
func (c *Coordinator) Join(req JoinRequest) (JoinResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Version != c.cfg.version() || req.Schema != c.cfg.schema() {
		c.counters.JoinRejects++
		return JoinResponse{}, fmt.Errorf("%w: worker has version=%q schema=%q, coordinator has version=%q schema=%q",
			ErrSkew, req.Version, req.Schema, c.cfg.version(), c.cfg.schema())
	}
	c.nextID++
	w := &workerState{id: fmt.Sprintf("w%d", c.nextID), name: req.Name, version: req.Version}
	c.workers[w.id] = w
	c.counters.Joins++
	c.logf("fabric: worker %s joined (name=%q)", w.id, w.name)
	return JoinResponse{Worker: w.id, Version: c.cfg.version(), Schema: c.cfg.schema()}, nil
}

// Submit registers a campaign for distributed execution. It opens the
// campaign directory with campaign.Open, as the single-node path does
// (same spec.json, same store, same committer), replays any per-worker
// segments left by a previous coordinator incarnation, and exposes the
// plan's shards for leasing. Submitting a spec that is already registered
// (or already complete on disk) is idempotent.
func (c *Coordinator) Submit(spec campaign.Spec, opts SubmitOptions) (SessionStatus, error) {
	id := spec.Canonical().ID()

	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[id]; ok {
		return c.sessionStatusLocked(s), nil // only valid specs are registered
	}

	cm, err := campaign.Open(c.cfg.root(), spec, c.cfg.FS)
	if err != nil {
		return SessionStatus{}, err
	}
	fail := func(err error) (SessionStatus, error) {
		cm.Close()
		return SessionStatus{}, err
	}
	fsys := c.cfg.FS
	if fsys == nil {
		fsys = iofault.OS{}
	}
	if err := fsys.MkdirAll(store.SegmentsDir(cm.Dir()), 0o755); err != nil {
		return fail(fmt.Errorf("fabric: %w", err))
	}
	s := &session{
		id:     id,
		cm:     cm,
		plan:   cm.Plan(),
		state:  make([]uint8, len(cm.Plan())),
		by:     make(map[int]string),
		leases: make(map[string]*lease),
	}

	// Replay segments from a previous coordinator incarnation: every
	// fsynced shard report survives a coordinator crash, so resumption
	// never re-executes work that was already streamed back.
	segs, err := store.ReadSegments(cm.Dir())
	if err != nil {
		return fail(err)
	}
	for _, worker := range sortedKeys(segs) {
		for shard, recs := range GroupShards(s.plan, segs[worker]) {
			fresh, err := cm.Offer(shard, recs)
			if errors.Is(err, ErrBadShard) {
				continue // incomplete or torn bucket: will be re-executed
			}
			if err != nil {
				return fail(err)
			}
			if fresh {
				s.by[shard] = worker
			}
		}
	}
	for i := range s.state {
		if cm.Staged(i) {
			s.state[i] = shardDone
		}
	}

	c.sessions[id] = s
	c.order = append(c.order, id)
	c.finishIfDoneLocked(s)
	c.logf("fabric: campaign %s submitted (%d shards, %d committed)", id, len(s.plan), cm.Committed())
	return c.sessionStatusLocked(s), nil
}

// Lease hands the worker a contiguous pending shard range. When nothing is
// pending anywhere it tries to steal the tail half of the largest
// outstanding lease; when every campaign is committed it reports Drained.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[req.Worker]; !ok {
		return LeaseResponse{}, fmt.Errorf("%w: %q", ErrUnknownWorker, req.Worker)
	}
	c.sweepExpiredLocked()

	for _, id := range c.order {
		s := c.sessions[id]
		if s.done {
			continue
		}
		from, to := nextPendingRun(s.state, c.cfg.leaseShards())
		if from < 0 {
			continue
		}
		return LeaseResponse{Lease: c.grantLocked(s, req.Worker, from, to, false)}, nil
	}
	if g := c.stealLocked(req.Worker); g != nil {
		return LeaseResponse{Lease: g}, nil
	}
	if len(c.order) > 0 && c.allDoneLocked() {
		return LeaseResponse{Drained: true}, nil
	}
	return LeaseResponse{Idle: true}, nil
}

// Heartbeat extends a lease and returns its current bounds, which may have
// shrunk if a peer stole the tail.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[req.Worker]; !ok {
		return HeartbeatResponse{}, fmt.Errorf("%w: %q", ErrUnknownWorker, req.Worker)
	}
	c.sweepExpiredLocked()
	l := c.findLeaseLocked(req.Lease)
	if l == nil || l.worker != req.Worker {
		return HeartbeatResponse{}, fmt.Errorf("%w: %q (expired and reassigned?)", ErrUnknownLease, req.Lease)
	}
	l.expiry = c.now().Add(c.cfg.leaseTTL())
	return HeartbeatResponse{From: l.from, To: l.to}, nil
}

// Complete ingests one executed shard: journal it to the reporting
// worker's segment file (fsynced — after this a coordinator crash cannot
// lose the report), then merge it in plan order. Completes are accepted
// even when the lease has expired: the records are deterministic and
// validated, so work is never thrown away.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[req.Worker]; !ok {
		return CompleteResponse{}, fmt.Errorf("%w: %q", ErrUnknownWorker, req.Worker)
	}
	s, ok := c.sessions[req.Campaign]
	if !ok {
		return CompleteResponse{}, fmt.Errorf("%w: %q", ErrUnknownCampaign, req.Campaign)
	}
	c.sweepExpiredLocked()
	if err := campaign.ValidateShard(s.plan, req.Shard, req.Records); err != nil {
		return CompleteResponse{}, err
	}

	resp := CompleteResponse{}
	if l := s.leases[req.Lease]; l != nil && l.worker == req.Worker {
		l.expiry = c.now().Add(c.cfg.leaseTTL())
		resp.From, resp.To = l.from, l.to
	}

	if s.cm.Staged(req.Shard) {
		c.counters.Duplicates++
		resp.Duplicate = true
		resp.Done = s.done
		return resp, nil
	}

	if err := store.AppendSegmentFS(c.cfg.FS, store.SegmentPath(s.cm.Dir(), req.Worker), req.Records); err != nil {
		return CompleteResponse{}, err
	}
	fresh, err := s.cm.Offer(req.Shard, req.Records)
	if fresh {
		s.by[req.Shard] = req.Worker
	}
	if err != nil {
		return CompleteResponse{}, err
	}
	s.state[req.Shard] = shardDone
	c.counters.Completes++

	if l := s.leases[req.Lease]; l != nil && len(s.remaining(l)) == 0 {
		delete(s.leases, req.Lease)
		resp.From, resp.To = 0, 0
	}
	c.finishIfDoneLocked(s)
	resp.Done = s.done
	return resp, nil
}

// SessionStatusByID reports one campaign's distribution state.
func (c *Coordinator) SessionStatusByID(id string) (SessionStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[id]
	if !ok {
		return SessionStatus{}, false
	}
	c.sweepExpiredLocked()
	return c.sessionStatusLocked(s), true
}

// Status reports the whole fabric: workers, campaigns, counters.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepExpiredLocked()
	out := Status{Counters: c.counters}
	shardsBy := make(map[string]int)
	for _, id := range c.order {
		s := c.sessions[id]
		out.Campaigns = append(out.Campaigns, c.sessionStatusLocked(s))
		for _, w := range s.by {
			shardsBy[w]++
		}
	}
	for _, id := range sortedKeys(c.workers) {
		w := c.workers[id]
		out.Workers = append(out.Workers, WorkerStatus{
			Worker: w.id, Name: w.name, Version: w.version, Shards: shardsBy[w.id],
		})
	}
	return out
}

// Counters returns a snapshot of the fabric's event counters (for
// /metrics).
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Shutdown closes every open campaign store. Safe to call more than once.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sessions {
		s.cm.Close()
	}
}

// --- internals (all called with c.mu held) ---

// sweepExpiredLocked lazily expires leases: every unfinished shard of a
// lease past its deadline returns to the pending set for reassignment.
// Lazy sweeping on each protocol call keeps the coordinator free of
// background goroutines and makes expiry fully deterministic under an
// injected clock.
func (c *Coordinator) sweepExpiredLocked() {
	now := c.now()
	for _, id := range c.order {
		s := c.sessions[id]
		for lid, l := range s.leases {
			if !l.expiry.Before(now) {
				continue
			}
			for _, i := range s.remaining(l) {
				s.state[i] = shardPending
			}
			delete(s.leases, lid)
			c.counters.Reassigns++
			c.logf("fabric: lease %s (worker %s, shards [%d,%d)) expired; shards reassigned", lid, l.worker, l.from, l.to)
		}
	}
}

func (c *Coordinator) grantLocked(s *session, worker string, from, to int, stolen bool) *LeaseGrant {
	c.nextLease++
	l := &lease{
		id:      fmt.Sprintf("l%d", c.nextLease),
		worker:  worker,
		session: s,
		from:    from,
		to:      to,
		expiry:  c.now().Add(c.cfg.leaseTTL()),
	}
	s.leases[l.id] = l
	for i := from; i < to; i++ {
		if s.state[i] == shardPending {
			s.state[i] = shardLeased
		}
	}
	c.counters.Leases++
	if stolen {
		c.counters.Steals++
	}
	c.logf("fabric: lease %s: shards [%d,%d) of %s -> worker %s (stolen=%v)", l.id, from, to, s.id, worker, stolen)
	return &LeaseGrant{
		Lease:     l.id,
		Campaign:  s.id,
		Spec:      s.cm.Spec(),
		From:      from,
		To:        to,
		TTLMillis: c.cfg.leaseTTL().Milliseconds(),
	}
}

// stealLocked implements the straggler rule: with nothing pending, take
// the tail half of the lease with the most unfinished shards — but only
// if that leaves the victim at least one shard, so stealing terminates.
func (c *Coordinator) stealLocked(worker string) *LeaseGrant {
	var victim *lease
	var victimRemaining []int
	for _, id := range c.order {
		s := c.sessions[id]
		for _, l := range s.leases {
			rem := s.remaining(l)
			if len(rem) > len(victimRemaining) {
				victim, victimRemaining = l, rem
			}
		}
	}
	if victim == nil || len(victimRemaining) < 2 {
		return nil
	}
	split := victimRemaining[len(victimRemaining)/2]
	to := victim.to
	victim.to = split
	c.logf("fabric: stealing shards [%d,%d) from lease %s (worker %s)", split, to, victim.id, victim.worker)
	return c.grantLocked(victim.session, worker, split, to, true)
}

func (c *Coordinator) findLeaseLocked(id string) *lease {
	for _, s := range c.sessions {
		if l, ok := s.leases[id]; ok {
			return l
		}
	}
	return nil
}

func (c *Coordinator) allDoneLocked() bool {
	for _, s := range c.sessions {
		if !s.done {
			return false
		}
	}
	return true
}

func (c *Coordinator) finishIfDoneLocked(s *session) {
	if s.done || !s.cm.Done() {
		return
	}
	s.done = true
	for lid := range s.leases {
		delete(s.leases, lid)
	}
	s.cm.Close()
	c.logf("fabric: campaign %s complete (%d shards)", s.id, len(s.plan))
}

func (c *Coordinator) sessionStatusLocked(s *session) SessionStatus {
	spec := s.cm.Spec()
	out := SessionStatus{
		ID:        s.id,
		Name:      spec.Name,
		Dir:       s.cm.Dir(),
		Shards:    len(s.plan),
		Units:     spec.Units(),
		Committed: s.cm.Committed(),
		Done:      s.done,
	}
	now := c.now()
	for _, lid := range sortedKeys(s.leases) {
		l := s.leases[lid]
		out.Leases = append(out.Leases, LeaseStatus{
			Lease: l.id, Worker: l.worker, From: l.from, To: l.to,
			ExpiresMS: l.expiry.Sub(now).Milliseconds(),
		})
	}
	by := make(map[string]int)
	for _, w := range s.by {
		by[w]++
	}
	if len(by) > 0 {
		out.ShardsByWorker = by
	}
	return out
}

// nextPendingRun finds the first contiguous run of pending shards, capped
// at max, returning from=-1 when nothing is pending.
func nextPendingRun(state []uint8, max int) (from, to int) {
	for i, st := range state {
		if st != shardPending {
			continue
		}
		j := i
		for j < len(state) && state[j] == shardPending && j-i < max {
			j++
		}
		return i, j
	}
	return -1, -1
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
