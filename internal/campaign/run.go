package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"marchgen/internal/core"
	"marchgen/internal/iofault"
	"marchgen/internal/store"
)

// ErrNeedsResume is returned by Run when the store directory holds prior
// partial progress for the same spec and resumption was not requested:
// silently continuing or silently restarting would both be surprising.
var ErrNeedsResume = errors.New("campaign: store holds prior progress for this spec; pass resume to continue")

// Event kinds delivered to RunOptions.OnEvent.
const (
	// EventUnitDone fires after each unit executes (before its shard
	// commits); Seq and Err describe the unit.
	EventUnitDone = "unit-done"
	// EventShardCommitted fires after a shard's records are durably
	// committed; Shard is the shard just committed, Committed the new count.
	EventShardCommitted = "shard-committed"
)

// Event is one progress notification. Events are delivered serially (the
// engine holds a lock around the callback) but from engine goroutines, not
// the Run caller's.
type Event struct {
	Kind      string
	Shard     int
	Seq       int
	Committed int
	Err       string
}

// RunOptions tunes one Run call.
type RunOptions struct {
	// Workers bounds the number of shards executing concurrently;
	// 0 means GOMAXPROCS.
	Workers int
	// Resume permits continuing a store with prior partial progress.
	// Without it, Run on a partially-complete directory fails with
	// ErrNeedsResume. A complete campaign is always returned as-is.
	Resume bool
	// OnEvent, when set, receives progress events.
	OnEvent func(Event)
	// FS, when set, carries every mutating store I/O operation of this
	// run — the fault-injection seam the chaos suite drives with an
	// iofault.Injector. Nil means the real filesystem.
	FS iofault.FS
}

func (o RunOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Summary describes a finished (or already-finished) campaign run.
type Summary struct {
	ID          string `json:"id"`
	SpecHash    string `json:"spec_hash"`
	Dir         string `json:"dir"`
	Shards      int    `json:"shards"`
	Units       int    `json:"units"`
	ResumedFrom int    `json:"resumed_from_shards"`
	UnitErrors  int    `json:"unit_errors"`
}

// shardOut is a worker's finished shard, delivered to the committer.
type shardOut struct {
	idx  int
	recs []store.Record
	err  error
}

// Run executes (or resumes) the campaign described by spec, with its store
// rooted at root/<campaign-id>. It returns once every shard is committed,
// the context is canceled, or an infrastructure error occurs. Shards are
// executed concurrently but committed strictly in plan order, and the
// checkpoint advances atomically after each commit — killing the process at
// any instant and re-running with Resume yields a result set byte-identical
// to an uninterrupted run.
func Run(ctx context.Context, spec Spec, root string, opts RunOptions) (Summary, error) {
	cm, err := Open(root, spec, opts.FS)
	if err != nil {
		return Summary{}, err
	}
	defer cm.Close()

	shards := cm.Plan()
	start := cm.Committed()
	switch {
	case cm.Done():
		return summarize(cm, start) // already complete: idempotent
	case start > 0 && !opts.Resume:
		return Summary{}, fmt.Errorf("%w (%d/%d shards committed in %s)", ErrNeedsResume, start, len(shards), cm.Dir())
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		eventMu sync.Mutex
		memo    = NewMemo()
	)
	emit := func(ev Event) {
		if opts.OnEvent == nil {
			return
		}
		eventMu.Lock()
		defer eventMu.Unlock()
		opts.OnEvent(ev)
	}
	cm.ctx = runCtx
	cm.onCommit = func(shard int) {
		emit(Event{Kind: EventShardCommitted, Shard: shard, Committed: shard + 1})
	}

	shardCh := make(chan Shard)
	outCh := make(chan shardOut)
	var wg sync.WaitGroup
	for i := 0; i < opts.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range shardCh {
				outCh <- safeRunShard(runCtx, sh, memo, emit)
			}
		}()
	}
	go func() {
		defer close(shardCh)
		for _, sh := range shards[start:] {
			select {
			case shardCh <- sh:
			case <-runCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()

	// Shards complete in any order; the committer commits them in plan
	// order. Once the context dies it commits nothing more, so the store
	// stays at its last checkpoint even if later shards already finished
	// executing — the same state a SIGKILL between shards leaves behind.
	var firstErr error
	for out := range outCh {
		err := out.err
		if err == nil && firstErr == nil {
			_, err = cm.Offer(out.idx, out.recs)
		}
		if err != nil && firstErr == nil {
			firstErr = err
			cancel() // stop handing out further shards; drain the rest
		}
	}
	if firstErr == nil && !cm.Done() {
		// The feeder stops handing out shards once the context dies, so a
		// cancel can leave shards that no worker ever saw and no error
		// reported them.
		firstErr = runCtx.Err()
	}
	if firstErr != nil {
		return Summary{}, firstErr
	}
	return summarize(cm, start)
}

// safeRunShard contains panics from a shard's unit work (or a panicking
// OnEvent callback): instead of killing the worker goroutine — which
// would deadlock the committer and poison the whole pool — a panic fails
// the shard with its captured stack, and the campaign aborts cleanly at
// the last committed checkpoint.
func safeRunShard(ctx context.Context, sh Shard, memo *Memo, emit func(Event)) (out shardOut) {
	defer func() {
		if r := recover(); r != nil {
			out = shardOut{idx: sh.ID, err: fmt.Errorf("campaign: shard %d panicked: %v\n%s", sh.ID, r, debug.Stack())}
		}
	}()
	return runShard(ctx, sh, memo, emit)
}

// runShard executes a shard's units in order, aborting on the first
// infrastructure error (cancellation).
func runShard(ctx context.Context, sh Shard, memo *Memo, emit func(Event)) shardOut {
	recs := make([]store.Record, 0, len(sh.Units))
	for _, u := range sh.Units {
		if err := ctx.Err(); err != nil {
			return shardOut{idx: sh.ID, err: err}
		}
		res, err := runUnitMemo(ctx, u, memo)
		if err != nil {
			return shardOut{idx: sh.ID, err: err}
		}
		body, err := marshalResult(res)
		if err != nil {
			return shardOut{idx: sh.ID, err: err}
		}
		recs = append(recs, store.Record{ID: u.ID(), Shard: sh.ID, Seq: u.Seq, Body: body})
		emit(Event{Kind: EventUnitDone, Shard: sh.ID, Seq: u.Seq, Err: res.Error})
	}
	return shardOut{idx: sh.ID, recs: recs}
}

// ExecuteShard runs one shard of a plan and returns its records in exactly
// the committed form — the worker half of the distributed fabric
// (internal/fabric). Records are deterministic functions of the shard's
// units, so two workers executing the same shard produce identical bytes.
func ExecuteShard(ctx context.Context, sh Shard, memo *Memo) ([]store.Record, error) {
	out := safeRunShard(ctx, sh, memo, func(Event) {})
	return out.recs, out.err
}

func summarize(cm *Committer, resumedFrom int) (Summary, error) {
	snap, err := Load(cm.Dir())
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		ID:          cm.Spec().ID(),
		SpecHash:    cm.Spec().Hash(),
		Dir:         cm.Dir(),
		Shards:      snap.Checkpoint.Shards,
		Units:       snap.Checkpoint.Records,
		ResumedFrom: resumedFrom,
		UnitErrors:  snap.UnitErrors,
	}, nil
}

// Memo deduplicates generation work across units that share generator
// coordinates (list, profile, order, size) and differ only in derived axes
// (width, topology, verify, optimize): the first unit generates, the rest
// reuse the result.
// Results are deterministic, so memoization cannot change any record — which
// is also why fabric workers can each hold a private Memo without breaking
// the byte-identity of the merged result set.
type Memo struct {
	mu sync.Mutex
	m  map[string]*genEntry
}

type genEntry struct {
	once sync.Once
	res  core.Result
	err  error
}

// NewMemo returns an empty generation memo, shareable across ExecuteShard
// calls of one process.
func NewMemo() *Memo { return &Memo{m: make(map[string]*genEntry)} }

// runUnitMemo is runUnit with the generation step memoized on the unit's
// generator coordinates.
func runUnitMemo(ctx context.Context, u Unit, memo *Memo) (UnitResult, error) {
	if memo == nil {
		return runUnit(ctx, u)
	}
	key := fmt.Sprintf("%s|%s|%s|%d", u.List, u.Profile, u.Order, u.Size)
	memo.mu.Lock()
	e, ok := memo.m[key]
	if !ok {
		e = &genEntry{}
		memo.m[key] = e
	}
	memo.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = generateForUnit(ctx, u)
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// A canceled generation must not poison the memo for a later
		// resume within the same process.
		memo.mu.Lock()
		if memo.m[key] == e {
			delete(memo.m, key)
		}
		memo.mu.Unlock()
		return UnitResult{Unit: u}, e.err
	}
	return buildResult(ctx, u, e.res, e.err)
}
