package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// The simulator throughput benchmark behind the -bench-sim flag. It mirrors
// internal/sim's BenchmarkSimulate/BenchmarkDetectsFaultScheduled and writes
// the measurements next to two frozen records, the pre-schedule baseline and
// the scalar compiled schedule, so the speedup of each layer stays a
// recorded number. The live lanes-vs-scalar ratio comes from
// go test -bench Simulate ./internal/sim, which can still reach the scalar
// engine.

type benchEntry struct {
	Name            string  `json:"name"`
	Test            string  `json:"test"`
	List            string  `json:"list"`
	Faults          int     `json:"faults"`
	Scenarios       int     `json:"scenarios"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
}

type benchFile struct {
	Generated string       `json:"generated"`
	Config    string       `json:"config"`
	Note      string       `json:"note"`
	Baseline  []benchEntry `json:"baseline"`
	Current   []benchEntry `json:"current"`
	// Lanes holds the same workloads measured now under the production
	// engine; Baseline and Current are the recorded earlier layers, so the
	// three sections read as per-scenario baseline → compiled schedule →
	// compiled schedule × 48 lanes.
	Lanes []benchEntry `json:"lanes"`
}

// baselineBenchSim holds the measurements of the per-scenario simulator
// before the compiled-schedule layer (commit "growth seed", Intel Xeon
// 2.10 GHz, go1.22, -benchtime 3x). Scenario counts are filled in at
// runtime — the scenario space is unchanged by the schedule.
var baselineBenchSim = []benchEntry{
	{Name: "Simulate", Test: "March SL", List: "List1", NsPerOp: 156986337, AllocsPerOp: 357452, BytesPerOp: 11416445},
	{Name: "Simulate", Test: "March ABL", List: "List1", NsPerOp: 131679418, AllocsPerOp: 375568, BytesPerOp: 12010349},
	{Name: "Simulate", Test: "March LF1", List: "List2", NsPerOp: 200520, AllocsPerOp: 1251, BytesPerOp: 37853},
	{Name: "DetectsFault", Test: "March SL", List: "LF3-pair", NsPerOp: 690716, AllocsPerOp: 1165, BytesPerOp: 37080},
}

// scalarBenchSim holds the measurements of the scalar compiled schedule,
// as -bench-sim last recorded them in BENCH_sim.json's "current" section
// (commit e5124a5, 2026-08-07). The scalar engine is now only a fallback
// inside internal/sim, out of this command's reach.
var scalarBenchSim = []benchEntry{
	{Name: "Simulate", Test: "March SL", List: "List1", NsPerOp: 21004530, AllocsPerOp: 1851, BytesPerOp: 79541},
	{Name: "Simulate", Test: "March ABL", List: "List1", NsPerOp: 15542171, AllocsPerOp: 1907, BytesPerOp: 79599},
	{Name: "Simulate", Test: "March LF1", List: "List2", NsPerOp: 20313, AllocsPerOp: 110, BytesPerOp: 6922},
	{Name: "DetectsFault", Test: "March SL", List: "LF3-pair", NsPerOp: 79288, AllocsPerOp: 3, BytesPerOp: 32},
}

func benchLists() (map[string][]linked.Fault, error) {
	lf, err := linked.NewLF3(fp.MustParseFP("<0w1;0/1/->"), fp.MustParseFP("<0w1;1/0/->"))
	if err != nil {
		return nil, err
	}
	return map[string][]linked.Fault{
		"List1":    faultlist.List1(),
		"List2":    faultlist.List2(),
		"LF3-pair": {lf},
	}, nil
}

func benchTests() map[string]march.Test {
	return map[string]march.Test{
		"March SL":  march.MarchSL,
		"March ABL": march.MarchABL,
		"March LF1": march.MarchLF1,
	}
}

func scenarioSpace(t march.Test, faults []linked.Fault, cfg sim.Config) (int, error) {
	s, err := sim.NewSchedule(t, cfg)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range faults {
		n, err := s.ScenarioCount(f)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func runBenchSim(path string, w io.Writer) error {
	cfg := sim.DefaultConfig()
	lists, err := benchLists()
	if err != nil {
		return err
	}
	tests := benchTests()

	measure := func(e benchEntry) (benchEntry, error) {
		t, faults := tests[e.Test], lists[e.List]
		var r testing.BenchmarkResult
		switch e.Name {
		case "Simulate":
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := sim.Simulate(t, faults, cfg).Err(); err != nil {
						b.Fatal(err)
					}
				}
			})
		case "DetectsFault":
			s, err := sim.NewSchedule(t, cfg)
			if err != nil {
				return e, err
			}
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, f := range faults {
						if _, _, err := s.DetectsFault(f); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		default:
			return e, fmt.Errorf("unknown benchmark %q", e.Name)
		}
		e.NsPerOp = r.NsPerOp()
		e.AllocsPerOp = r.AllocsPerOp()
		e.BytesPerOp = r.AllocedBytesPerOp()
		return e, nil
	}

	out := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Config:    "sim.DefaultConfig(): 4 cells, exhaustive ⇕ expansion",
		Note: "baseline = per-scenario simulator before the compiled-schedule layer; " +
			"current = compiled schedule with lanes disabled, recorded at commit e5124a5; " +
			"lanes = default bit-parallel engine; " +
			"scenarios/sec = scenarios / (ns_per_op / 1e9)",
	}
	for i, e := range baselineBenchSim {
		scenarios, err := scenarioSpace(tests[e.Test], lists[e.List], cfg)
		if err != nil {
			return err
		}
		fill := func(e benchEntry) benchEntry {
			e.Faults = len(lists[e.List])
			e.Scenarios = scenarios
			e.ScenariosPerSec = float64(scenarios) / (float64(e.NsPerOp) / 1e9)
			return e
		}
		out.Baseline = append(out.Baseline, fill(e))
		out.Current = append(out.Current, fill(scalarBenchSim[i]))
		ln, err := measure(e)
		if err != nil {
			return err
		}
		out.Lanes = append(out.Lanes, fill(ln))

		fmt.Fprintf(w, "  %-12s %-10s %-8s lanes %12d ns/op (baseline %12d, %.1fx)\n",
			ln.Name, ln.Test, ln.List, ln.NsPerOp, e.NsPerOp, float64(e.NsPerOp)/float64(ln.NsPerOp))
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}
