package fabric

import (
	"sort"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// GroupShards buckets loose records (a parsed segment file) into per-shard
// candidate slices ordered by unit sequence, dropping duplicate sequence
// numbers (first occurrence wins) and records naming shards outside the
// plan. The result is what campaign.Committer.Offer expects — though a
// bucket may still be incomplete or mismatched, which Offer rejects per
// shard.
func GroupShards(plan []campaign.Shard, recs []store.Record) map[int][]store.Record {
	buckets := make(map[int][]store.Record)
	seen := make(map[int]map[int]bool)
	for _, rec := range recs {
		if rec.Shard < 0 || rec.Shard >= len(plan) {
			continue
		}
		if seen[rec.Shard] == nil {
			seen[rec.Shard] = make(map[int]bool)
		}
		if seen[rec.Shard][rec.Seq] {
			continue
		}
		seen[rec.Shard][rec.Seq] = true
		buckets[rec.Shard] = append(buckets[rec.Shard], rec)
	}
	for shard, b := range buckets {
		sort.Slice(b, func(i, j int) bool { return b[i].Seq < b[j].Seq })
		buckets[shard] = b
	}
	return buckets
}
