package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/optimize"
)

// The optimizer benchmark behind the -bench-opt flag: run the search from
// the paper's Table 1 tests and record what it finds against the published
// lengths (March SL 37n and March ABL 35n for List #1, March ABL1 9n for
// List #2), and from the generator's own List #1 test. Seeds and budgets are
// fixed and no time is recorded, so BENCH_opt.json regenerates
// byte-identically up to the timestamp.

type optBenchEntry struct {
	List        string `json:"list"`
	Faults      int    `json:"faults"`
	SeedTest    string `json:"seed_test"`
	SeedLength  int    `json:"seed_length"`
	PaperLength int    `json:"paper_length"`
	Budget      int    `json:"budget"`
	RngSeed     int64  `json:"rng_seed"`
	Length      int    `json:"length"`
	Test        string `json:"test"`
	Evaluations int    `json:"evaluations"`
	Improved    bool   `json:"improved"`
	MoveTrace   string `json:"move_trace"`
}

type optBenchFile struct {
	Generated string          `json:"generated"`
	Note      string          `json:"note"`
	Entries   []optBenchEntry `json:"entries"`
}

// optBenchWorkloads are the Table 1 attack points: fixed seeds and budgets
// so every regeneration searches the same trajectory.
// Only two library tests fully cover List #1 under this reproduction's
// simulator (March SL at 41n and the reconstructed 43n test), so those are
// the List #1 seeds; the published 37n (March ABL) and 35n (March RABL)
// lengths are the baselines their winners are compared against. The last
// row starts from the generator's own 25n List #1 test (a nil seed) with the
// optimizer's default budget: can search beat the generator?
var optBenchWorkloads = []struct {
	list    string
	seed    *march.Test
	paper   int
	budget  int
	rngSeed int64
}{
	{"list2", &march.MarchABL1, 9, 400, 1},
	{"list1", &march.MarchSL, 37, 150, 1},
	{"list1", &march.March43N, 35, 150, 1},
	{"list1", nil, 37, 2000, 1},
}

func runBenchOpt(path string, w io.Writer) error {
	out := optBenchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Note: "search-based optimizer (internal/optimize); a length record, no timings. " +
			"The list2 row and the first two list1 rows start from library tests (the 33n row " +
			"from March SL at 41n, not from the generator); the March GEN row starts from the " +
			"generator's own 25n List #1 test and is the record of whether search beats the " +
			"generator. paper_length = the published complexity the run attacks; every winner " +
			"is oracle-certified before it is recorded",
	}
	for _, wl := range optBenchWorkloads {
		var faults []linked.Fault
		switch wl.list {
		case "list1":
			faults = faultlist.List1()
		case "list2":
			faults = faultlist.List2()
		default:
			return fmt.Errorf("unknown bench list %q", wl.list)
		}
		res, err := optimize.Run(faults, optimize.Options{
			Seed:     wl.rngSeed,
			Budget:   wl.budget,
			SeedTest: wl.seed,
		})
		if err != nil {
			return fmt.Errorf("%s optimizer run %d: %v", wl.list, len(out.Entries), err)
		}
		e := optBenchEntry{
			List:        wl.list,
			Faults:      len(faults),
			SeedTest:    res.Seed.Name,
			SeedLength:  res.Stats.SeedLength,
			PaperLength: wl.paper,
			Budget:      wl.budget,
			RngSeed:     wl.rngSeed,
			Length:      res.Test.Length(),
			Test:        res.Test.String(),
			Evaluations: res.Stats.Evaluations,
			Improved:    res.Stats.Improved,
			MoveTrace:   res.Test.Prov.MoveTrace,
		}
		out.Entries = append(out.Entries, e)
		fmt.Fprintf(w, "  %-6s from %-14s (%2dn, paper %2dn): found %2dn in %d evaluations\n",
			e.List, e.SeedTest, e.SeedLength, e.PaperLength, e.Length, e.Evaluations)
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
