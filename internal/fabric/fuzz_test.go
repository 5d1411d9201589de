package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// segmentBytes encodes records exactly as AppendSegmentFS would.
func segmentBytes(tb testing.TB, recs []store.Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// FuzzSegmentMerge drives the coordinator's segment-replay path —
// ParseSegment → GroupShards → campaign.Committer.Offer — with arbitrary segment
// bytes and holds it to its contract: whatever the segment says
// (duplicates, out-of-order shards, torn tails, mutated ids, binary
// garbage), the store's already-committed prefix is never altered, every
// shard that does commit validates exactly against the plan, and nothing
// panics.
func FuzzSegmentMerge(f *testing.F) {
	spec := testSpec()
	plan := campaign.Plan(spec)

	ordered := append(append(segmentBytes(f, fakeRecs(plan[1])),
		segmentBytes(f, fakeRecs(plan[2]))...),
		segmentBytes(f, fakeRecs(plan[3]))...)
	f.Add(ordered)
	// A duplicated shard, an out-of-order pair, a re-report of the
	// already-committed shard 0, and a torn tail mid-record.
	f.Add(append(segmentBytes(f, fakeRecs(plan[1])), segmentBytes(f, fakeRecs(plan[1]))...))
	f.Add(append(segmentBytes(f, fakeRecs(plan[3])), segmentBytes(f, fakeRecs(plan[1]))...))
	f.Add(segmentBytes(f, fakeRecs(plan[0])))
	f.Add(ordered[:len(ordered)-7])
	// A record with a mutated unit id and one with an out-of-plan shard.
	mutated := fakeRecs(plan[1])
	mutated[0].ID = "u-ffffffffffffffffffffffff"
	stray := fakeRecs(plan[2])
	stray[0].Shard = 99
	f.Add(append(segmentBytes(f, mutated), segmentBytes(f, stray)...))
	f.Add([]byte("\x00\xff\n{]\nnot json at all\n"))
	f.Add([]byte(`{"id":"u-torn`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh campaign with shard 0 already committed: the prefix the
		// segment must never be able to damage.
		cm, err := campaign.Open(t.TempDir(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cm.Close()
		dir := cm.Dir()
		if _, err := cm.Offer(0, fakeRecs(plan[0])); err != nil {
			t.Fatal(err)
		}
		prefix, err := os.ReadFile(store.DataPath(dir))
		if err != nil {
			t.Fatal(err)
		}

		for shard, bucket := range GroupShards(plan, store.ParseSegment(data)) {
			// ErrBadShard is an acceptable verdict for hostile input;
			// store I/O errors are not.
			if _, err := cm.Offer(shard, bucket); err != nil && !isBadShard(err) {
				t.Fatalf("Offer(%d): %v", shard, err)
			}
		}

		after, err := os.ReadFile(store.DataPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, prefix) {
			t.Fatalf("committed prefix was rewritten:\nbefore: %q\nafter:  %q", prefix, after)
		}
		cp, recs, err := store.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Shards < 1 || cp.Shards != cm.Committed() {
			t.Fatalf("checkpoint shards = %d, committer committed = %d", cp.Shards, cm.Committed())
		}
		// Every committed shard — however it arrived — matches the plan.
		off := 0
		for shard := 0; shard < cp.Shards; shard++ {
			n := len(plan[shard].Units)
			if off+n > len(recs) {
				t.Fatalf("store truncated: %d records for %d committed shards", len(recs), cp.Shards)
			}
			if err := campaign.ValidateShard(plan, shard, recs[off:off+n]); err != nil {
				t.Fatalf("committed shard %d invalid: %v", shard, err)
			}
			off += n
		}
		if off != len(recs) {
			t.Fatalf("store holds %d records beyond the committed shards", len(recs)-off)
		}
	})
}

func isBadShard(err error) bool { return errors.Is(err, ErrBadShard) }
