package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"marchgen"
	"marchgen/internal/core"
	"marchgen/internal/fabric"
	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/optimize"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
	"marchgen/internal/store"
)

// probeLayers measures, with spans around each call into a layer, every
// per-layer metric the traced workload window did not already produce.
// Each workload thus reports the full per-layer set; the values its own
// traffic measured take precedence.
func probeLayers(b *bench) error {
	tr := &tracer{}
	ctx := context.Background()
	for _, l := range []string{"list1", "list2"} {
		for i := 0; i < 15; i++ {
			_, end := tr.begin("faultlist.build."+l, 0, 0)
			_, err := marchgen.FaultListByName(l)
			end()
			if err != nil {
				return err
			}
		}
		b.setLayer("faultlist.build_ms."+l, median(tr.durationsMS("faultlist.build."+l)))
	}
	list1 := faultlist.List1()

	if !b.hasLayer("core.generate_ms.list1", "core.generate_ms.list1-aggressive", "core.generate_ms.list2", "core.simulations", "core.alloc_mb") {
		tw := &table1Workload{lists: map[string][]linked.Fault{"list1": list1, "list2": faultlist.List2()}}
		id, end := tr.begin("bench.op", 0, 0)
		_, err := tw.regenerate(tr, id)
		end()
		if err != nil {
			return err
		}
		table1Layers(b, tr)
	}

	// Minimize share: Generate with and without the minimize phase on the
	// same row, alternated.
	var gen march.Test
	var full, skip []float64
	for i := 0; i < 3; i++ {
		for _, skipMin := range []bool{false, true} {
			start := time.Now()
			res, err := core.Generate(list1, core.Options{SkipMinimize: skipMin})
			if err != nil {
				return err
			}
			if skipMin {
				skip = append(skip, ms(time.Since(start)))
			} else {
				full = append(full, ms(time.Since(start)))
				gen = res.Test
			}
		}
	}
	b.setLayer("core.minimize_ms", median(full)-median(skip))

	if err := probeSim(b, tr, gen, list1); err != nil {
		return err
	}

	for i := 0; i < 3; i++ {
		_, end := tr.begin("oracle.crosscheck", 0, 0)
		diffs := oracle.CrossCheck(gen, list1, sim.DefaultConfig())
		end()
		if len(diffs) > 0 {
			return fmt.Errorf("oracle: %d divergences on the generated List #1 test", len(diffs))
		}
	}
	b.setLayer("oracle.crosscheck_ms", median(tr.durationsMS("oracle.crosscheck")))

	opt, err := optimize.Run(list1, optimize.Options{SeedTest: &gen, Budget: 100, Seed: b.seed})
	if err != nil {
		return err
	}
	b.setLayer("optimize.evals_per_s", float64(opt.Stats.Evaluations)/opt.Stats.Duration.Seconds())

	for i := 0; i < 5; i++ {
		_, end := tr.begin("word.evaluate", 0, 0)
		_, err := core.EvaluateWord(ctx, gen, 4, false)
		end()
		if err != nil {
			return err
		}
	}
	b.setLayer("word.evaluate_ms", median(tr.durationsMS("word.evaluate")))
	if !b.hasLayer("mport.catalog_s") {
		start := time.Now()
		if _, err := core.EvaluateMport(ctx, gen, 2); err != nil {
			return err
		}
		b.setLayer("mport.catalog_s", time.Since(start).Seconds())
	}
	for i := 0; i < 5; i++ {
		_, end := tr.begin("mport.evaluate", 0, 0)
		_, err := core.EvaluateMport(ctx, gen, 2)
		end()
		if err != nil {
			return err
		}
	}
	b.setLayer("mport.evaluate_ms", median(tr.durationsMS("mport.evaluate")))

	if err := probeCampaign(b, tr); err != nil {
		return err
	}
	if !b.hasLayer("service.hit_ms.list1", "service.hit_ms.list2", "service.hit_ms.verify", "service.ttfb_ms",
		"service.queue_wait_ms", "service.job_run_ms", "service.poll_overhead_ms", "service.miss_overcount",
		"service.mallocs_per_hit.list1", "service.mallocs_per_hit.list2", "bench.late_ms") {
		if err := probeService(b); err != nil {
			return err
		}
	}
	b.setLayer("service.hit_rest_ms.list1", b.layer["service.hit_ms.list1"]-b.layer["faultlist.build_ms.list1"])
	return nil
}

// table1Layers derives the generator metrics from the spans and counts of
// Table-1 regenerations.
func table1Layers(b *bench, tr *tracer) {
	for _, r := range table1Rows {
		b.setLayer("core.generate_ms."+r.layer, median(tr.durationsMS("core.generate."+r.layer)))
	}
	sims := median(tr.values("core.simulations"))
	b.setLayer("core.simulations", sims)
	b.setLayer("core.sims_per_s", sims/(b.layer["core.generate_ms.list1"]/1000))
	b.setLayer("core.alloc_mb", median(tr.values("core.alloc_mb")))
}

// probeSim times schedule compilation and exhaustive certification of the
// generated List #1 test and of March SL.
func probeSim(b *bench, tr *tracer, gen march.Test, list1 []linked.Fault) error {
	cfg := sim.DefaultConfig()
	var certifyMS float64
	scenarios := 0
	for _, t := range []march.Test{gen, march.MarchSL} {
		var s *sim.Schedule
		for i := 0; i < 20; i++ {
			_, end := tr.begin("sim.compile", 0, 0)
			var err error
			s, err = sim.NewSchedule(t, cfg)
			end()
			if err != nil {
				return err
			}
		}
		for _, f := range list1 {
			n, err := s.ScenarioCount(f)
			if err != nil {
				return err
			}
			scenarios += n
		}
		var runs []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			rep := s.Simulate(list1)
			runs = append(runs, ms(time.Since(start)))
			if !rep.Full() {
				return fmt.Errorf("sim: %s misses %d of List #1", t.Name, rep.Total()-rep.Detected())
			}
		}
		certifyMS += median(runs)
	}
	b.setLayer("sim.compile_us", 1000*median(tr.durationsMS("sim.compile")))
	b.setLayer("sim.certify_ms", certifyMS/2)
	b.setLayer("sim.scenarios_per_s", float64(scenarios)/(certifyMS/1000))
	return nil
}

// probeCampaign fills the campaign and store metrics if the window did not,
// and always measures the fabric: the same spec through an in-process
// coordinator and two workers, against the single-node engine, with
// byte-identical stores required.
func probeCampaign(b *bench, tr *tracer) error {
	cw := &campaignWorkload{spec: campaignSpec(b.seed)}
	start := time.Now()
	single, sum, shards, err := cw.runOnce(b, tr, 0)
	if err != nil {
		return err
	}
	singleS := time.Since(start).Seconds()
	if sum.UnitErrors != 0 {
		return fmt.Errorf("campaign: %d unit errors", sum.UnitErrors)
	}
	b.setLayer("campaign.shard_ms", median(shards))
	b.setLayer("store.read_ms", median(tr.durationsMS("store.read")))

	root := filepath.Join(b.tmp, "fabric")
	defer os.RemoveAll(root)
	start = time.Now()
	coord := fabric.NewCoordinator(fabric.Config{Root: root, LeaseShards: 2})
	hs := httptest.NewServer(coord.Mux())
	defer func() {
		hs.Close()
		coord.Shutdown()
	}()
	if _, err := coord.Submit(cw.spec, fabric.SubmitOptions{}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, loadConns)
	for i := 0; i < loadConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wk := &fabric.Worker{Coordinator: hs.URL, Poll: 5 * time.Millisecond, ExitOnDrain: true}
			errs[i] = wk.Run(ctx)
		}(i)
	}
	wg.Wait()
	fabricS := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("fabric worker: %w", err)
		}
	}
	got, err := os.ReadFile(store.DataPath(cw.spec.Canonical().Dir(root)))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, single) {
		return fmt.Errorf("fabric store differs from the single-node store (%d vs %d bytes)", len(got), len(single))
	}
	b.setLayer("fabric.overhead_ratio", fabricS/singleS)
	return nil
}

// probeService runs a short traced serve-mixed window on a fresh server to
// fill the service metrics of workloads without that traffic.
func probeService(b *bench) error {
	sw := &serveWorkload{name: "probe", rates: serveRates["serve-mixed"], seed: b.seed}
	defer sw.close()
	if err := sw.start(b); err != nil {
		return err
	}
	if _, err := sw.measure(b, 4*time.Second, &tracer{}); err != nil {
		return err
	}
	wrong, err := sw.check(b)
	if err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("service probe: %d wrong outputs", wrong)
	}
	for _, o := range sw.ops {
		if o.fail != "" {
			return fmt.Errorf("service probe: %s", o.fail)
		}
	}
	return nil
}
