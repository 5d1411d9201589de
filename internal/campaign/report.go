package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"marchgen/internal/march"
	"marchgen/internal/report"
	"marchgen/internal/store"
)

// Decode parses the committed records of a campaign store back into unit
// results, ordered by plan sequence.
func Decode(recs []store.Record) ([]UnitResult, error) {
	out := make([]UnitResult, 0, len(recs))
	for _, r := range recs {
		var u UnitResult
		if err := json.Unmarshal(r.Body, &u); err != nil {
			return nil, fmt.Errorf("campaign: record %s: %w", r.ID, err)
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Unit.Seq < out[j].Unit.Seq })
	return out, nil
}

// RenderMatrix writes the campaign's coverage/length matrix: one row per
// unit of the sweep, with the Table 1 comparisons where they apply (the
// length improvement over the published March SL for list1 targets and over
// March LF1 for list2 targets — the paper's Table 1 is the
// list1/list2 × standard/aggressive corner of this matrix).
func RenderMatrix(w io.Writer, title string, results []UnitResult) error {
	t := &report.Table{
		Title: title,
		Header: []string{"List", "Profile", "Order", "n", "w", "P", "Topo",
			"Len", "Opt", "Coverage", "vs SL", "vs LF1", "BIST cyc", "1-order",
			"Word", "Transp", "Mport", "Error"},
	}
	for _, r := range results {
		u := r.Unit
		if r.Error != "" {
			t.AddRow(u.List, u.Profile, u.Order, fmt.Sprint(u.Size), fmt.Sprint(u.Width),
				portsCell(u), topoCell(u), "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", r.Error)
			continue
		}
		vsSL, vsLF1 := "-", "-"
		length := r.Length
		if r.Optimize != nil {
			length = r.Optimize.Length // the frontier compares the optimized length
		}
		switch u.List {
		case "list1":
			vsSL = report.Percent(report.Improvement(march.MarchSL.Length(), length))
		case "list2":
			vsLF1 = report.Percent(report.Improvement(march.MarchLF1.Length(), length))
		}
		optCell := "-"
		if r.Optimize != nil {
			optCell = fmt.Sprintf("%dn@%d", r.Optimize.Length, r.Optimize.Budget)
		}
		// The BIST column reads the unit's recorded axis results: the
		// generated test's estimate, superseded by the optimizer winner's
		// cost when the sweep point weighted BIST cycles into the fitness.
		bistCell := fmt.Sprint(r.BIST.Cycles)
		if r.Optimize != nil && r.Optimize.BISTCycles > 0 {
			bistCell = fmt.Sprintf("%d*", r.Optimize.BISTCycles)
		}
		wordCell, transpCell := "-", "-"
		if r.Word != nil {
			wordCell = fmt.Sprintf("%d/%d", r.Word.Detected, r.Word.Faults)
			if r.Word.Transparent {
				transpCell = fmt.Sprintf("%d/%d", r.Word.TransparentDetected, r.Word.Faults)
			}
		}
		mportCell := "-"
		if r.Mport != nil {
			mportCell = fmt.Sprintf("%d/%d", r.Mport.LiftedDetected, r.Mport.Faults)
		}
		t.AddRow(u.List, u.Profile, u.Order, fmt.Sprint(u.Size), fmt.Sprint(u.Width),
			portsCell(u), topoCell(u),
			fmt.Sprint(r.Length), optCell,
			fmt.Sprintf("%d/%d", r.Coverage.Detected, r.Coverage.Total),
			vsSL, vsLF1,
			bistCell,
			fmt.Sprint(r.BIST.SingleOrder),
			wordCell, transpCell, mportCell, "")
	}
	return t.Render(w)
}

// RenderFrontier writes the length-vs-budget frontier of a campaign with an
// optimize axis: one row per optimizer sweep point, grouped by generator
// coordinates and ordered by budget, so the marginal value of search effort
// reads top to bottom. Units without optimizer records are skipped.
func RenderFrontier(w io.Writer, results []UnitResult) error {
	type row struct {
		r UnitResult
		o OptimizeJSON
	}
	var rows []row
	for _, r := range results {
		if r.Error != "" || r.Optimize == nil {
			continue
		}
		rows = append(rows, row{r, *r.Optimize})
	}
	if len(rows) == 0 {
		return nil
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.r.Unit.Seq != b.r.Unit.Seq {
			// Plan order already groups generator coordinates and orders
			// budgets within a group; seq is a stable proxy for both.
			return a.r.Unit.Seq < b.r.Unit.Seq
		}
		return a.o.Budget < b.o.Budget
	})
	t := &report.Table{
		Title: "Length-vs-budget frontier (optimizer sweep)",
		Header: []string{"List", "Profile", "Order", "n",
			"Seed len", "Budget", "Rng", "Wt", "Len", "BIST cyc", "Evals", "Improved", "Test"},
	}
	for _, x := range rows {
		u := x.r.Unit
		wt, cyc := "-", "-"
		if x.o.BISTWeight > 0 {
			wt = fmt.Sprint(x.o.BISTWeight)
			cyc = fmt.Sprint(x.o.BISTCycles)
		}
		t.AddRow(u.List, u.Profile, u.Order, fmt.Sprint(u.Size),
			fmt.Sprintf("%dn", x.o.SeedLength),
			fmt.Sprint(x.o.Budget),
			fmt.Sprint(x.o.Seed),
			wt,
			fmt.Sprintf("%dn", x.o.Length),
			cyc,
			fmt.Sprint(x.o.Evaluations),
			fmt.Sprint(x.o.Improved),
			x.o.Test)
	}
	return t.Render(w)
}

func topoCell(u Unit) string {
	if u.Topology == "" {
		return "-"
	}
	return u.Topology
}

// portsCell renders the unit's port count; the stored 0 is the normalized
// single-port default.
func portsCell(u Unit) string {
	if u.Ports <= 1 {
		return "1"
	}
	return fmt.Sprint(u.Ports)
}

// RenderTests writes the generated tests of a campaign, one per distinct
// generator coordinate (units differing only in width/topology share one
// generated test, so duplicates are collapsed).
func RenderTests(w io.Writer, results []UnitResult) error {
	seen := make(map[string]bool)
	for _, r := range results {
		if r.Error != "" || r.Test == "" {
			continue
		}
		key := fmt.Sprintf("%s|%s|%s|%d", r.Unit.List, r.Unit.Profile, r.Unit.Order, r.Unit.Size)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, err := fmt.Fprintf(w, "%-8s %-10s %-5s n=%-2d %3dn  %s\n",
			r.Unit.List, r.Unit.Profile, r.Unit.Order, r.Unit.Size, r.Length, r.Test); err != nil {
			return err
		}
	}
	return nil
}

// Report loads a campaign directory and writes the matrix and the
// generated-test listing: the implementation behind `marchcamp report`.
// It returns the snapshot it rendered, so a caller can judge completeness
// from the same read.
func Report(w io.Writer, dir string) (Snapshot, error) {
	snap, err := Load(dir)
	if err != nil {
		return Snapshot{}, err
	}
	sf, results := snap.SpecFile, snap.Results
	title := fmt.Sprintf("Campaign %s (%s): %d/%d units in %d/%d shards committed",
		sf.ID, displayName(sf.Spec), len(results), sf.Spec.Units(), snap.Checkpoint.Shards, snap.Shards)
	if err := RenderMatrix(w, title, results); err != nil {
		return snap, err
	}
	hasOpt := false
	for _, r := range results {
		if r.Optimize != nil {
			hasOpt = true
			break
		}
	}
	if hasOpt {
		fmt.Fprintln(w)
		if err := RenderFrontier(w, results); err != nil {
			return snap, err
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated tests:")
	return snap, RenderTests(w, results)
}

func displayName(s Spec) string {
	if s.Name == "" {
		return "unnamed"
	}
	return s.Name
}
