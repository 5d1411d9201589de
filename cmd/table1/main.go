// Command table1 regenerates the paper's Table 1: it runs the generator
// against Fault Lists #1 and #2, measures generation CPU time (user+system
// time of the process, as the paper's "CPU Time" column) and test length,
// and compares against the published baselines (the 43n test of [11], the
// 41n March SL of [10] and the 11n March LF1 of [16]). It also reports the
// simulated coverage of every published test on the reproduction's fault
// lists, which is the data behind EXPERIMENTS.md.
//
// Usage:
//
//	table1            # full reproduction (three generated rows + baselines)
//	table1 -quick     # skip the aggressive (RABL-profile) row
//
// Exit codes:
//
//	0  the table rendered
//	1  generation, simulation or output error
//	2  usage error (bad flags)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"marchgen"
	"marchgen/internal/buildinfo"
	"marchgen/internal/faultlist"
	"marchgen/internal/march"
	"marchgen/internal/report"
	"marchgen/internal/sim"
)

// Exit codes of the table1 command.
const (
	exitOK    = 0 // table rendered
	exitErr   = 1 // generation / simulation / output errors
	exitUsage = 2 // flag errors
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process plumbing factored out so tests can drive
// the command end to end and assert on its exit code and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "skip the aggressive (March RABL profile) row")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		buildinfo.Fprint(stdout, "table1")
		return exitOK
	}

	list1 := faultlist.List1()
	list2 := faultlist.List2()

	type genRow struct {
		name       string
		faults     []marchgen.Fault
		listLabel  string
		aggressive bool
		vsLF1      bool
	}
	rows := []genRow{
		{"ABL-repro", list1, "#1", false, false},
		{"RABL-repro", list1, "#1", true, false},
		{"ABL1-repro", list2, "#2", false, true},
	}
	if *quick {
		rows = append(rows[:1], rows[2:]...)
	}

	var t1 []report.Table1Row
	for _, r := range rows {
		cpuStart, cpuOK := processCPU()
		res, err := marchgen.Generate(r.faults, marchgen.Options{Name: "March " + r.name, Aggressive: r.aggressive})
		if err != nil {
			fmt.Fprintln(stderr, "table1:", err)
			return exitErr
		}
		cpuEnd, _ := processCPU()
		cpuSeconds := math.NaN()
		if cpuOK {
			cpuSeconds = (cpuEnd - cpuStart).Seconds()
		}
		row := report.Table1Row{
			Algorithm:  r.name,
			MarchTest:  res.Test.String(),
			FaultList:  r.listLabel,
			CPUSeconds: cpuSeconds,
			Length:     res.Test.Length(),
			Imp43:      math.NaN(),
			ImpSL:      math.NaN(),
			ImpLF1:     math.NaN(),
			Coverage:   fmt.Sprintf("%d/%d", res.Report.Detected(), res.Report.Total()),
		}
		if r.vsLF1 {
			row.ImpLF1 = report.Improvement(march.MarchLF1.Length(), res.Test.Length())
		} else {
			row.Imp43 = report.Improvement(march.March43N.Length(), res.Test.Length())
			row.ImpSL = report.Improvement(march.MarchSL.Length(), res.Test.Length())
		}
		t1 = append(t1, row)
		fmt.Fprintf(stdout, "%-11s => %s\n", r.name, res.Test)
	}
	fmt.Fprintln(stdout)
	if err := report.Table1(t1).Render(stdout); err != nil {
		fmt.Fprintln(stderr, "table1:", err)
		return exitErr
	}

	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Published tests on the reproduction's fault lists (coverage check):")
	cov := &report.Table{Header: []string{"March Test", "O(n)", "List #1", "List #2", "Simple"}}
	cfg := sim.DefaultConfig()
	simple := faultlist.SimpleStatic()
	for _, m := range []marchgen.March{march.MarchSL, march.MarchLF1, march.March43N, march.MarchABL, march.MarchRABL, march.MarchABL1, march.MarchCMinus, march.MarchSS} {
		r1 := sim.Simulate(m, list1, cfg)
		r2 := sim.Simulate(m, list2, cfg)
		rs := sim.Simulate(m, simple, cfg)
		cov.AddRow(m.Name, m.Complexity(),
			fmt.Sprintf("%d/%d", r1.Detected(), r1.Total()),
			fmt.Sprintf("%d/%d", r2.Detected(), r2.Total()),
			fmt.Sprintf("%d/%d", rs.Detected(), rs.Total()))
	}
	if err := cov.Render(stdout); err != nil {
		fmt.Fprintln(stderr, "table1:", err)
		return exitErr
	}
	return exitOK
}
