// Command perfbench is the repository benchmark: it drives four workloads
// against the module's packages and an in-process marchd, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. README.md in this directory defines every metric and workload.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"marchgen/internal/buildinfo"
)

// metricDef is one reported metric; the lists below mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"cpu_p50_ms", "ms"},
	{"cpu_tail_ms", "ms"},
	{"goodput_per_cpu_s", "1/s"},
	{"test_length_n", "ops/cell"},
}

var perLayer = []metricDef{
	{"faultlist.build_ms.list1", "ms"},
	{"faultlist.build_ms.list2", "ms"},
	{"core.generate_ms.list1", "ms"},
	{"core.generate_ms.list1-aggressive", "ms"},
	{"core.generate_ms.list2", "ms"},
	{"core.simulations", "count"},
	{"core.sims_per_s", "1/s"},
	{"core.alloc_mb", "MB"},
	{"core.minimize_ms", "ms"},
	{"sim.compile_us", "us"},
	{"sim.certify_ms", "ms"},
	{"sim.scenarios_per_s", "1/s"},
	{"oracle.crosscheck_ms", "ms"},
	{"optimize.evals_per_s", "1/s"},
	{"word.evaluate_ms", "ms"},
	{"mport.evaluate_ms", "ms"},
	{"mport.catalog_s", "s"},
	{"campaign.shard_ms", "ms"},
	{"store.read_ms", "ms"},
	{"fabric.overhead_ratio", "ratio"},
	{"service.hit_ms.list1", "ms"},
	{"service.hit_ms.list2", "ms"},
	{"service.hit_ms.verify", "ms"},
	{"service.hit_rest_ms.list1", "ms"},
	{"service.ttfb_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.job_run_ms", "ms"},
	{"service.poll_overhead_ms", "ms"},
	{"service.mallocs_per_hit.list1", "count"},
	{"service.mallocs_per_hit.list2", "count"},
	{"service.gc_per_1k_req", "count"},
	{"service.sheds", "count"},
	{"service.miss_overcount", "count"},
	{"bench.late_ms", "ms"},
	{"bench.self_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// setupReps is how many times a workload repeats its set-up; setup_s is the
// median, so one slow boot does not decide the figure.
const setupReps = 5

// workload is one named traffic mix. setup prepares it (repeating the
// repeatable part setupReps times) and returns the set-up time; measure
// runs it for one window; check verifies the outputs of every window and
// returns how many operations produced a wrong output.
type workload interface {
	setup(b *bench) (setupS float64, err error)
	measure(b *bench, window time.Duration, tr *tracer) (*phase, error)
	check(b *bench) (wrong int, err error)
	close()
}

// phase is what one measurement window produced.
type phase struct {
	attempted, failed int
	lat               []float64     // headline-operation latencies (wall time), ms
	cpu               []float64     // process CPU time per headline operation, ms
	cpuTime           time.Duration // process CPU time over the window
	medians, tails    []float64     // medians and tails of sub-windows, where the workload has enough samples for them
	tailPct           float64       // the percentile of tails
	good              int           // operations that count towards goodput
	elapsed           time.Duration
	testLen           int
}

// bench carries the run's inputs and its accumulated report.
type bench struct {
	workload string
	seed     int64
	tmp      string
	traced   bool
	layer    map[string]float64 // per-layer values, traced runs only
	lines    []string           // human-readable report lines
}

func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// setLayer records a per-layer value unless an earlier, more specific
// measurement already set it (the workload's own traffic wins over the
// generic layer probe).
func (b *bench) setLayer(name string, v float64) {
	if _, ok := b.layer[name]; !ok {
		b.layer[name] = v
	}
}

func (b *bench) hasLayer(names ...string) bool {
	for _, n := range names {
		if _, ok := b.layer[n]; !ok {
			return false
		}
	}
	return true
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: table1, serve-hot, serve-mixed or campaign")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, ok := newWorkload(*name, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	defer w.close()

	tmp, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{workload: *name, seed: *seed, tmp: tmp, traced: *trace == 1, layer: map[string]float64{}}
	res, err := execute(b, w, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printInfo(b, *seconds)
	sort.Strings(b.lines)
	for _, l := range b.lines {
		fmt.Println("#", l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func newWorkload(name string, seed int64) (workload, bool) {
	switch name {
	case "table1":
		return &table1Workload{}, true
	case "serve-hot", "serve-mixed":
		return &serveWorkload{name: name, rates: serveRates[name]}, true
	case "campaign":
		return &campaignWorkload{spec: campaignSpec(seed)}, true
	}
	return nil, false
}

// execute runs set-up, the measurement window(s), the output checks and,
// for a traced run, the layer probe, and assembles the result.
func execute(b *bench, w workload, window time.Duration) (resultOut, error) {
	setupS, err := w.setup(b)
	if err != nil {
		return resultOut{}, fmt.Errorf("setup: %w", err)
	}
	var phases []*phase
	if b.traced {
		// Untraced and traced quarters alternate, so warm-up and drift fall
		// on both sides; the difference of their pooled medians is the
		// tracing overhead.
		tr := &tracer{}
		var plain, traced []float64
		for i := 0; i < 4; i++ {
			var t *tracer
			if i%2 == 1 {
				t = tr
			}
			p, err := w.measure(b, window/4, t)
			if err != nil {
				return resultOut{}, err
			}
			phases = append(phases, p)
			if t == nil {
				plain = append(plain, p.lat...)
			} else {
				traced = append(traced, p.lat...)
			}
		}
		b.setLayer("bench.trace_overhead_pct", 100*(median(traced)-median(plain))/median(plain))
		b.setLayer("bench.self_ms", median(tr.selfTimesMS("bench.op")))
		if err := tr.write(filepath.Join(filepath.Dir(b.tmp), fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))); err != nil {
			return resultOut{}, err
		}
	} else {
		p, err := w.measure(b, window, nil)
		if err != nil {
			return resultOut{}, err
		}
		phases = []*phase{p}
	}
	wrong, err := w.check(b)
	if err != nil {
		return resultOut{}, fmt.Errorf("check: %w", err)
	}
	if b.traced {
		if err := probeLayers(b); err != nil {
			return resultOut{}, fmt.Errorf("layer probe: %w", err)
		}
	}

	var all phase
	for _, p := range phases {
		all.attempted += p.attempted
		all.failed += p.failed
		all.lat = append(all.lat, p.lat...)
		all.cpu = append(all.cpu, p.cpu...)
		all.cpuTime += p.cpuTime
		all.medians = append(all.medians, p.medians...)
		all.tails = append(all.tails, p.tails...)
		all.tailPct = p.tailPct
		all.good += p.good
		all.elapsed += p.elapsed
		all.testLen = p.testLen
	}
	all.failed += wrong
	if all.failed > all.attempted {
		all.failed = all.attempted
	}
	if all.attempted == 0 {
		return resultOut{}, fmt.Errorf("no operation completed in the window")
	}

	res := resultOut{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metricOut{}}
	if b.traced {
		for _, d := range perLayer {
			v, ok := b.layer[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return resultOut{}, fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			res.Metrics[d.name] = metricOut{v, d.unit}
		}
		return res, nil
	}
	// The gated time metrics are process CPU time, as in the paper's
	// Table 1: wall time on a shared host also counts the time the host
	// gives the process's CPUs to others, and spread too much between runs
	// to gate anything. Wall-time figures are printed beside them.
	cpuTail, cpuNote := tailWithNote(all.cpu)
	vals := map[string]float64{
		"setup_s":           setupS,
		"ok_ratio":          float64(all.attempted-all.failed) / float64(all.attempted),
		"peak_rss_mb":       peakRSSMB(),
		"cpu_p50_ms":        median(all.cpu),
		"cpu_tail_ms":       cpuTail,
		"goodput_per_cpu_s": float64(all.good) / all.cpuTime.Seconds(),
		"test_length_n":     float64(all.testLen),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricOut{vals[d.name], d.unit}
	}
	b.note("fail_ratio = %.6f ratio (%d failed of %d attempted)", float64(all.failed)/float64(all.attempted), all.failed, all.attempted)
	b.note("cpu_tail_ms is %s", cpuNote)

	t, tailNote := tailWithNote(all.lat)
	p50 := median(all.lat)
	if len(all.tails) > 0 {
		p50 = median(all.medians)
		b.note("wall p50_ms is the median of %d sub-window medians %v (whole window: %.3f ms)", len(all.medians), roundAll(all.medians), median(all.lat))
		t = median(all.tails)
		tailNote = fmt.Sprintf("the median of %d sub-window p%g values %v (whole window: %s)", len(all.tails), all.tailPct, roundAll(all.tails), tailNote)
	}
	b.note("wall p50_ms = %.3f ms, wall tail_ms = %.3f ms (%s), goodput_per_s = %.3f 1/s", p50, t, tailNote, float64(all.good)/all.elapsed.Seconds())
	if b.workload == "table1" {
		b.note("table1_p50_s = %.4f s, table1_tail_s = %.4f s (wall); table1_cpu_p50_s = %.4f s, table1_cpu_tail_s = %.4f s; test_length_n = %d ops/cell",
			p50/1000, t/1000, vals["cpu_p50_ms"]/1000, cpuTail/1000, all.testLen)
	}
	return res, nil
}

// tailWithNote is tail(xs) with a description of the percentile it took.
func tailWithNote(xs []float64) (float64, string) {
	t, pct, ok := tail(xs)
	if !ok {
		return t, fmt.Sprintf("median: %d samples leave no percentile with %d beyond", len(xs), minBeyond)
	}
	return t, fmt.Sprintf("p%.2f of %d samples", pct, len(xs))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// printInfo records the machine and the inputs beside every result.
func printInfo(b *bench, seconds int) {
	info := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    seconds,
		"trace":      b.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     buildinfo.Version(),
	}
	if r, ok := serveRates[b.workload]; ok {
		info["rates_per_s"] = r
	}
	out, _ := json.Marshal(info) // a map of plain values always marshals
	fmt.Println("# info", string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
