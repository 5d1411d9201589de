package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"marchgen/internal/iofault"
	"marchgen/internal/store"
)

// This file is the campaign directory's on-disk protocol (DESIGN.md §9):
// Open is its one opener, Committer.Offer its one plan-order committer —
// shared by the single-node Run and the fabric coordinator — and Load its
// one reader.

// specFileName holds the human-readable campaign identity inside the store
// directory (the canonical spec plus its hash), written once and atomically.
const specFileName = "spec.json"

// SpecFile is the on-disk form of spec.json.
type SpecFile struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	Spec Spec   `json:"spec"`
}

// Dir returns the store directory of a spec under the given root.
func (s Spec) Dir(root string) string { return filepath.Join(root, s.ID()) }

// EnsureSpecFile writes dir/spec.json for the canonical spec if it is not
// already present, so a campaign directory carries the same spec.json
// bytes whoever created it.
func EnsureSpecFile(fsys iofault.FS, dir string, c Spec) error {
	if fsys == nil {
		fsys = iofault.OS{}
	}
	if _, err := os.Stat(filepath.Join(dir, specFileName)); !errors.Is(err, os.ErrNotExist) {
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		return nil
	}
	sf, err := json.Marshal(SpecFile{ID: c.ID(), Hash: c.Hash(), Spec: c})
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return store.WriteFileAtomicFS(fsys, filepath.Join(dir, specFileName), sf)
}

// ErrBadShard rejects records that are not exactly one plan shard's units:
// wrong count, ids, sequence, shard tag, or bodies that are not JSON. Only
// remotely executed shards can fail it, which is why its text names the
// fabric, whose HTTP error bodies carry it.
var ErrBadShard = errors.New("fabric: shard records do not match plan")

// ValidateShard checks that recs are exactly the units of plan[shard], in
// plan order, with well-formed bodies: the committer's admission test.
func ValidateShard(plan []Shard, shard int, recs []store.Record) error {
	if shard < 0 || shard >= len(plan) {
		return fmt.Errorf("%w: shard %d outside plan [0,%d)", ErrBadShard, shard, len(plan))
	}
	sh := plan[shard]
	if len(recs) != len(sh.Units) {
		return fmt.Errorf("%w: shard %d: %d records, plan has %d units", ErrBadShard, sh.ID, len(recs), len(sh.Units))
	}
	for i, rec := range recs {
		u := sh.Units[i]
		if rec.Shard != sh.ID || rec.Seq != u.Seq || rec.ID != u.ID() {
			return fmt.Errorf("%w: shard %d record %d: got (shard=%d seq=%d id=%s), want (shard=%d seq=%d id=%s)",
				ErrBadShard, sh.ID, i, rec.Shard, rec.Seq, rec.ID, sh.ID, u.Seq, u.ID())
		}
		if !json.Valid(rec.Body) {
			return fmt.Errorf("%w: shard %d record %d: body is not valid JSON", ErrBadShard, sh.ID, rec.Seq)
		}
	}
	return nil
}

// Committer is the one writer of a campaign directory. Shards may be
// offered in any order and more than once, but the store only ever grows
// by the next shard in plan order, the atomic checkpoint advancing after
// each: the Append/Commit sequence that makes a resumed run, and a fabric
// merge, byte-identical to an uninterrupted single-node run.
//
// A Committer is not goroutine-safe: Run offers from its one collecting
// goroutine, the fabric coordinator under its session lock.
type Committer struct {
	spec    Spec // canonical
	dir     string
	plan    []Shard
	st      *store.Store
	closed  bool
	next    int
	pending map[int][]store.Record

	// ctx and onCommit are Run's: committing stops once ctx is done, so
	// cancellation is honored between shard commits, and onCommit hears
	// each commit in plan order.
	ctx      context.Context
	onCommit func(shard int)
}

// Open validates the spec and opens (creating if needed) its campaign
// directory under root: the directory, its spec.json and its store, all
// through fsys (nil means the real filesystem). The committer resumes at
// the store's checkpoint: shards below it are already committed and are
// duplicates if offered again.
func Open(root string, spec Spec, fsys iofault.FS) (*Committer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := spec.Canonical()
	if fsys == nil {
		fsys = iofault.OS{}
	}
	dir := c.Dir(root)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := EnsureSpecFile(fsys, dir, c); err != nil {
		return nil, err
	}
	st, err := store.OpenFS(dir, c.Hash(), fsys)
	if err != nil {
		return nil, err
	}
	return &Committer{
		spec:    c,
		dir:     dir,
		plan:    Plan(c),
		st:      st,
		next:    st.Checkpoint().Shards,
		pending: make(map[int][]store.Record),
		ctx:     context.Background(),
	}, nil
}

// Spec returns the canonical spec of the campaign.
func (c *Committer) Spec() Spec { return c.spec }

// Dir returns the campaign directory.
func (c *Committer) Dir() string { return c.dir }

// Plan returns the campaign's shard plan.
func (c *Committer) Plan() []Shard { return c.plan }

// Committed returns the number of leading plan shards committed so far.
func (c *Committer) Committed() int { return c.next }

// Done reports whether every plan shard is committed.
func (c *Committer) Done() bool { return c.next >= len(c.plan) }

// Staged reports whether a shard is already committed or waiting for its
// plan-order turn.
func (c *Committer) Staged(shard int) bool {
	if shard < c.next {
		return true
	}
	_, ok := c.pending[shard]
	return ok
}

// Offer stages one completed shard and commits as far as plan order
// allows. Records that fail ValidateShard are rejected with ErrBadShard
// before anything touches the store, so a corrupt or hostile report can
// never damage the committed prefix. A duplicate (already committed or
// already staged) returns fresh=false and no error: double execution is a
// designed outcome of resumption, lease reassignment and stealing.
func (c *Committer) Offer(shard int, recs []store.Record) (fresh bool, err error) {
	if err := ValidateShard(c.plan, shard, recs); err != nil {
		return false, err
	}
	if c.Staged(shard) {
		return false, nil
	}
	c.pending[shard] = recs
	for {
		recs, ok := c.pending[c.next]
		if !ok {
			return true, nil
		}
		if err := c.ctx.Err(); err != nil {
			return true, err
		}
		for _, rec := range recs {
			if err := c.st.Append(rec); err != nil {
				return true, err
			}
		}
		if err := c.st.Commit(c.next + 1); err != nil {
			return true, err
		}
		delete(c.pending, c.next)
		c.next++
		if c.onCommit != nil {
			c.onCommit(c.next - 1)
		}
	}
}

// Close closes the store; everything committed stays on disk. Closing
// twice is a no-op.
func (c *Committer) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.st.Close()
}

// Snapshot is one consistent read of a campaign directory: the committed
// results are exactly the prefix the checkpoint names.
type Snapshot struct {
	SpecFile   SpecFile
	Checkpoint store.Checkpoint
	// Results are the committed unit results in plan order.
	Results []UnitResult
	// Shards is the size of the campaign's plan.
	Shards int
	// UnitErrors counts committed units that recorded an error.
	UnitErrors int
}

// Complete reports whether every plan shard is committed.
func (s Snapshot) Complete() bool { return s.Checkpoint.Shards >= s.Shards }

// Load reads a campaign directory without taking writer ownership: the one
// reader behind Run's summary, `marchcamp report` and the marchd campaign
// API.
func Load(dir string) (Snapshot, error) {
	raw, err := os.ReadFile(filepath.Join(dir, specFileName))
	if err != nil {
		return Snapshot{}, fmt.Errorf("campaign: %w", err)
	}
	var sf SpecFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		return Snapshot{}, fmt.Errorf("campaign: spec.json corrupt: %w", err)
	}
	cp, recs, err := store.Read(dir)
	if err != nil {
		return Snapshot{}, err
	}
	results, err := Decode(recs)
	if err != nil {
		return Snapshot{}, err
	}
	unitErrs := 0
	for _, r := range results {
		if r.Error != "" {
			unitErrs++
		}
	}
	return Snapshot{
		SpecFile:   sf,
		Checkpoint: cp,
		Results:    results,
		Shards:     len(Plan(sf.Spec)),
		UnitErrors: unitErrs,
	}, nil
}
