package fabric

import (
	"encoding/json"
	"fmt"
	"testing"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// testSpec is a six-shard, one-unit-per-shard spec: small enough to
// synthesize records for, sharded finely enough to exercise ordering.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "fabric-merge",
		Lists:     []string{"list2"},
		Orders:    []string{"free", "up", "down"},
		Sizes:     []int{3, 4},
		ShardSize: 1,
	}.Canonical()
}

// fakeRecs builds records that satisfy campaign.ValidateShard without
// running any unit work: merge logic is independent of what the bodies say.
func fakeRecs(sh campaign.Shard) []store.Record {
	recs := make([]store.Record, 0, len(sh.Units))
	for _, u := range sh.Units {
		recs = append(recs, store.Record{
			ID: u.ID(), Shard: sh.ID, Seq: u.Seq,
			Body: json.RawMessage(fmt.Sprintf(`{"seq":%d}`, u.Seq)),
		})
	}
	return recs
}

func TestGroupShardsNormalizesLooseRecords(t *testing.T) {
	spec := testSpec()
	plan := campaign.Plan(spec)

	var loose []store.Record
	// Shard 1 out of order, with a duplicate seq; shard 0 complete; one
	// record naming a shard outside the plan.
	loose = append(loose, fakeRecs(plan[1])...)
	loose = append(loose, fakeRecs(plan[1])[0])
	loose = append(loose, fakeRecs(plan[0])...)
	stray := fakeRecs(plan[0])[0]
	stray.Shard = 99
	loose = append(loose, stray)

	buckets := GroupShards(plan, loose)
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2: %v", len(buckets), buckets)
	}
	for shard, recs := range buckets {
		if err := campaign.ValidateShard(plan, shard, recs); err != nil {
			t.Errorf("bucket %d does not validate: %v", shard, err)
		}
	}
}
