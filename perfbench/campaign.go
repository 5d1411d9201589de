package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"marchgen/internal/campaign"
	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/march"
	"marchgen/internal/store"
)

// campaignBudget is the optimizer's fixed evaluation budget on the
// optimize-on half of the sweep.
const campaignBudget = 40

// campaignSpec is the sweep the campaign workload repeats: every axis the
// engine has beyond the paper's (word width, ports, oracle verification,
// the optimizer, one topology), on both paper fault lists. The spec is the
// same for every seed, which only names the campaign (the name is not part
// of its identity): the optimizer's rng seed changes how much work its
// budget buys, and the axis order how units fall into shards and so how
// well the two workers balance, so either would make the cost depend on
// the seed rather than on the program.
func campaignSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Name:       fmt.Sprintf("perfbench-%d", seed),
		Lists:      []string{"list1", "list2"},
		Widths:     []int{1, 4},
		Ports:      []int{1, 2},
		Verify:     []bool{false, true},
		Optimize:   []campaign.OptAxis{{Budget: 0}, {Budget: campaignBudget, Seed: 7}},
		Topologies: []string{"8x8"},
	}
}

// campaignWorkload repeats campaign.Run of one spec into fresh store roots
// in a closed loop.
type campaignWorkload struct {
	spec  campaign.Spec
	reps  int
	first []byte // results.jsonl of the first repetition
	wrong int
}

func (w *campaignWorkload) setup(b *bench) (float64, error) {
	// The two-port catalog march is memoized once per process by the
	// program, so it is built (and timed) once; the repeatable part is the
	// fault-list construction every unit performs.
	start, cpuStart := time.Now(), cpuNow()
	if _, err := core.EvaluateMport(context.Background(), march.MarchSL, 2); err != nil {
		return 0, err
	}
	b.setLayer("mport.catalog_s", time.Since(start).Seconds())
	catalog := (cpuNow() - cpuStart).Seconds()
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := cpuNow()
		for _, l := range w.spec.Lists {
			if _, ok := faultlist.ByName(l); !ok {
				return 0, fmt.Errorf("unknown list %q", l)
			}
		}
		times = append(times, (cpuNow() - t0).Seconds())
	}
	return catalog + median(times), nil
}

// runOnce executes the spec into a fresh root and returns its committed
// records file, the summary and the shard commit intervals.
func (w *campaignWorkload) runOnce(b *bench, tr *tracer, parent int64) ([]byte, campaign.Summary, []float64, error) {
	w.reps++
	root := filepath.Join(b.tmp, fmt.Sprintf("campaign-%d", w.reps))
	defer os.RemoveAll(root)
	var mu sync.Mutex
	var commits []time.Time
	start := time.Now()
	_, end := tr.begin("campaign.run", parent, parent)
	sum, err := campaign.Run(context.Background(), w.spec, root, campaign.RunOptions{
		Workers: loadConns,
		OnEvent: func(e campaign.Event) {
			if e.Kind == campaign.EventShardCommitted {
				mu.Lock()
				commits = append(commits, time.Now())
				mu.Unlock()
			}
		},
	})
	end()
	if err != nil {
		return nil, sum, nil, err
	}
	var shardMS []float64
	prev := start
	for _, c := range commits {
		shardMS = append(shardMS, ms(c.Sub(prev)))
		prev = c
	}
	dir := w.spec.Canonical().Dir(root)
	if tr != nil {
		for i := 0; i < 5; i++ {
			_, end := tr.begin("store.read", parent, parent)
			_, _, err := store.Read(dir)
			end()
			if err != nil {
				return nil, sum, nil, err
			}
		}
	}
	data, err := os.ReadFile(store.DataPath(dir))
	return data, sum, shardMS, err
}

func (w *campaignWorkload) measure(b *bench, window time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	var shardMS []float64
	units := 0
	start, cpuStart := time.Now(), cpuNow()
	for time.Since(start) < window {
		p.attempted++
		t0, c0 := time.Now(), cpuNow()
		id, end := tr.begin("bench.op", 0, 0)
		data, sum, shards, err := w.runOnce(b, tr, id)
		end()
		if err != nil {
			p.failed++
			b.note("campaign failure: %v", err)
			continue
		}
		p.lat = append(p.lat, ms(time.Since(t0)))
		p.cpu = append(p.cpu, ms(cpuNow()-c0))
		shardMS = append(shardMS, shards...)
		if w.first == nil {
			w.first = data
		}
		if sum.UnitErrors != 0 || sum.Units != w.spec.Units() || !bytes.Equal(data, w.first) {
			w.wrong++
			b.note("campaign repetition %d: %d unit errors, %d of %d units, byte-identical %v",
				w.reps, sum.UnitErrors, sum.Units, w.spec.Units(), bytes.Equal(data, w.first))
			continue
		}
		units += sum.Units
	}
	p.elapsed, p.cpuTime = time.Since(start), cpuNow()-cpuStart
	p.good = units
	n, err := sumLengths(w.first)
	if err != nil {
		return nil, err
	}
	p.testLen = n
	b.note("campaign units_per_s = %.3f 1/s (%d units in %.2f s), spec %s", float64(units)/p.elapsed.Seconds(), units, p.elapsed.Seconds(), w.spec.Canonical().ID())
	if tr != nil {
		b.setLayer("campaign.shard_ms", median(shardMS))
		b.setLayer("store.read_ms", median(tr.durationsMS("store.read")))
	}
	return p, nil
}

// sumLengths adds up the final test length of every stored unit: the
// optimized length where the unit ran the optimizer, else the generated one.
func sumLengths(data []byte) (int, error) {
	total := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Body struct {
				Length   int `json:"length"`
				Optimize *struct {
					Length int `json:"length"`
				} `json:"optimize"`
			} `json:"body"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, fmt.Errorf("campaign record: %w", err)
		}
		if rec.Body.Optimize != nil {
			total += rec.Body.Optimize.Length
		} else {
			total += rec.Body.Length
		}
	}
	return total, nil
}

// check: every repetition was compared with the first as it finished.
func (w *campaignWorkload) check(b *bench) (int, error) { return w.wrong, nil }

func (w *campaignWorkload) close() {}
