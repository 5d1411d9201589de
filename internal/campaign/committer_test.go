package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"marchgen/internal/store"
)

// committerSpec is a six-shard, one-unit-per-shard spec: small enough to
// synthesize records for, sharded finely enough to exercise ordering.
func committerSpec() Spec {
	return Spec{
		Name:      "committer",
		Lists:     []string{"list2"},
		Orders:    []string{"free", "up", "down"},
		Sizes:     []int{3, 4},
		ShardSize: 1,
	}.Canonical()
}

// fakeShardRecs builds records that satisfy ValidateShard without running
// any unit work: commit logic is independent of what the bodies say.
func fakeShardRecs(sh Shard) []store.Record {
	recs := make([]store.Record, 0, len(sh.Units))
	for _, u := range sh.Units {
		recs = append(recs, store.Record{
			ID: u.ID(), Shard: sh.ID, Seq: u.Seq,
			Body: json.RawMessage(fmt.Sprintf(`{"seq":%d}`, u.Seq)),
		})
	}
	return recs
}

func openTestCommitter(t *testing.T, spec Spec) *Committer {
	t.Helper()
	cm, err := Open(t.TempDir(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cm.Close() })
	return cm
}

func checkpointOf(t *testing.T, cm *Committer) store.Checkpoint {
	t.Helper()
	cp, err := store.ReadCheckpoint(cm.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestCommitterCommitsInPlanOrder(t *testing.T) {
	spec := committerSpec()
	plan := Plan(spec)
	cm := openTestCommitter(t, spec)

	// Offer shards out of order: nothing commits until the gap fills.
	for _, shard := range []int{2, 1, 4} {
		fresh, err := cm.Offer(shard, fakeShardRecs(plan[shard]))
		if err != nil || !fresh {
			t.Fatalf("Offer(%d) = (%v, %v), want (true, nil)", shard, fresh, err)
		}
	}
	if got := cm.Committed(); got != 0 {
		t.Fatalf("committed %d shards before shard 0 arrived, want 0", got)
	}
	if _, err := cm.Offer(0, fakeShardRecs(plan[0])); err != nil {
		t.Fatal(err)
	}
	if got := cm.Committed(); got != 3 {
		t.Fatalf("committed = %d after shard 0, want 3 (0..2 contiguous)", got)
	}
	for _, shard := range []int{3, 5} {
		if _, err := cm.Offer(shard, fakeShardRecs(plan[shard])); err != nil {
			t.Fatal(err)
		}
	}
	if !cm.Done() || cm.Committed() != len(plan) {
		t.Fatalf("Done=%v Committed=%d, want complete plan of %d", cm.Done(), cm.Committed(), len(plan))
	}
	_, recs, err := store.Read(cm.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != spec.Units() {
		t.Fatalf("store holds %d records, want %d", len(recs), spec.Units())
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d: store is not in plan order", i, r.Seq)
		}
	}
}

func TestCommitterDuplicatesAreNoOps(t *testing.T) {
	spec := committerSpec()
	plan := Plan(spec)
	cm := openTestCommitter(t, spec)

	if fresh, err := cm.Offer(0, fakeShardRecs(plan[0])); err != nil || !fresh {
		t.Fatalf("first offer: (%v, %v)", fresh, err)
	}
	// Duplicate of a committed shard, then of a staged one.
	if fresh, err := cm.Offer(0, fakeShardRecs(plan[0])); err != nil || fresh {
		t.Fatalf("dup of committed shard: (%v, %v), want (false, nil)", fresh, err)
	}
	if _, err := cm.Offer(3, fakeShardRecs(plan[3])); err != nil {
		t.Fatal(err)
	}
	if fresh, err := cm.Offer(3, fakeShardRecs(plan[3])); err != nil || fresh {
		t.Fatalf("dup of staged shard: (%v, %v), want (false, nil)", fresh, err)
	}
	if cp := checkpointOf(t, cm); cp.Records != 1 {
		t.Fatalf("%d records committed, want 1 (duplicates must not append)", cp.Records)
	}
}

func TestCommitterRejectsMismatchedRecords(t *testing.T) {
	spec := committerSpec()
	plan := Plan(spec)
	cm := openTestCommitter(t, spec)
	if _, err := cm.Offer(0, fakeShardRecs(plan[0])); err != nil {
		t.Fatal(err)
	}
	before := checkpointOf(t, cm)

	bad := []struct {
		name  string
		shard int
		recs  []store.Record
	}{
		{"wrong count", 1, nil},
		{"wrong unit id", 1, func() []store.Record {
			r := fakeShardRecs(plan[1])
			r[0].ID = "u-000000000000000000000000"
			return r
		}()},
		{"wrong seq", 1, func() []store.Record {
			r := fakeShardRecs(plan[1])
			r[0].Seq += 7
			return r
		}()},
		{"wrong shard tag", 1, func() []store.Record {
			r := fakeShardRecs(plan[1])
			r[0].Shard = 5
			return r
		}()},
		{"invalid body", 1, func() []store.Record {
			r := fakeShardRecs(plan[1])
			r[0].Body = json.RawMessage(`{"torn`)
			return r
		}()},
		{"shard out of plan", len(plan) + 3, fakeShardRecs(plan[1])},
	}
	for _, tc := range bad {
		if _, err := cm.Offer(tc.shard, tc.recs); !errors.Is(err, ErrBadShard) {
			t.Errorf("%s: err = %v, want ErrBadShard", tc.name, err)
		}
	}
	if cp := checkpointOf(t, cm); cp != before {
		t.Fatalf("checkpoint moved from %+v to %+v on rejected offers", before, cp)
	}
}
