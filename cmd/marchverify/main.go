// Command marchverify cross-checks the production fault simulator
// (internal/sim) against the independent reference oracle (internal/oracle):
// the same march tests and fault lists are simulated by both implementations
// — which share no code on the verdict path — and every divergence in
// detection verdict, missed-fault set or witness trace is reported. It is
// the repository's trust anchor: a clean run means the coverage numbers of
// Table 1 do not rest on a single simulator's bugs.
//
// Usage:
//
//	marchverify                           # library tests × every fault list
//	marchverify -list list2               # restrict to one fault list
//	marchverify -march "March SS"         # one library test
//	marchverify -spec "c(w0) ^(r0,w1)"    # one inline test
//	marchverify -seed 7 -n 1000           # add 1000 seeded random op streams
//	marchverify -props                    # also check metamorphic properties
//	marchverify -minimize                 # also check minimization keeps coverage
//
// Exit codes (for CI verification gates):
//
//	0  the two simulators agree on every checked pair (and every checked
//	   metamorphic property holds)
//	1  at least one divergence or property violation
//	2  usage error (bad flags, unknown march test or fault list,
//	   inconsistent march test)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"marchgen/internal/buildinfo"
	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/mport"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
	"marchgen/internal/word"
)

// Exit codes of the marchverify command.
const (
	exitAgree   = 0 // the simulators agree everywhere
	exitDiverge = 1 // at least one divergence or property violation
	exitUsage   = 2 // flag / march / fault-list errors
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process plumbing factored out so tests can drive the
// command end to end and assert on its exit code and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		marchName  = fs.String("march", "", "restrict to one library march test")
		spec       = fs.String("spec", "", "verify an inline march test in notation form")
		listName   = fs.String("list", "", "restrict to one fault list (default: every list)")
		size       = fs.Int("size", 4, "memory size in cells")
		exhaustive = fs.Bool("exhaustive", true, "expand every ⇕ element into both concrete orders")
		seed       = fs.Int64("seed", 1, "seed for the random op streams")
		n          = fs.Int("n", 0, "number of seeded random op streams to cross-check (rotated across the lists)")
		props      = fs.Bool("props", false, "also check the metamorphic properties on every pair")
		width      = fs.Int("width", 0, "also cross-check each test's word-path verdicts (internal/word vs oracle) at this word width")
		ports      = fs.Int("ports", 0, "port count: 2 also cross-checks each test's mport-path verdicts (internal/mport vs oracle)")
		minimize   = fs.Bool("minimize", false, "also generate per list with and without minimization and require both Full under the oracle")
		version    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		buildinfo.Fprint(stdout, "marchverify")
		return exitAgree
	}

	lists := faultlist.Names()
	if *listName != "" {
		if _, ok := faultlist.ByName(*listName); !ok {
			fmt.Fprintf(stderr, "marchverify: unknown fault list %q (known: %v)\n", *listName, faultlist.Names())
			return exitUsage
		}
		lists = []string{*listName}
	}

	var tests []march.Test
	switch {
	case *spec != "":
		name := *marchName
		if name == "" {
			name = "custom"
		}
		t, err := march.Parse(name, *spec)
		if err != nil {
			fmt.Fprintln(stderr, "marchverify:", err)
			return exitUsage
		}
		tests = []march.Test{t}
	case *marchName != "":
		t, ok := march.ByName(*marchName)
		if !ok {
			fmt.Fprintf(stderr, "marchverify: unknown march test %q\n", *marchName)
			return exitUsage
		}
		tests = []march.Test{t}
	default:
		tests = march.Lib()
	}
	for _, t := range tests {
		if err := t.CheckConsistency(); err != nil {
			fmt.Fprintf(stderr, "marchverify: inconsistent march test %q: %v\n", t.Name, err)
			return exitUsage
		}
	}

	cfg := sim.Config{Size: *size, ExhaustiveOrders: *exhaustive}
	v := verifier{cfg: cfg, props: *props, stdout: stdout}

	// Sweep: every selected test against every selected list.
	for _, list := range lists {
		faults, _ := faultlist.ByName(list)
		for _, t := range tests {
			v.checkPair(t, list, faults)
		}
	}

	// Random op streams, rotated across the lists so the stream count —
	// not the cross-product — bounds the work.
	if *n > 0 {
		streams := oracle.RandomTests(*seed, *n)
		for i, t := range streams {
			list := lists[i%len(lists)]
			faults, _ := faultlist.ByName(list)
			v.checkPair(t, list, faults)
		}
	}

	if *minimize {
		for _, list := range lists {
			faults, _ := faultlist.ByName(list)
			v.checkMinimize(list, faults)
		}
	}

	// Axis cross-checks are per test (the word and mport fault spaces are
	// fixed by width/port count, not by the fault list).
	if *width > 1 || *ports > 1 {
		for _, t := range tests {
			if *width > 1 {
				v.checkWord(t, *width)
			}
			if *ports > 1 {
				v.checkMport(t)
			}
		}
	}

	fmt.Fprintf(stdout, "marchverify: %d pairs checked (%d lists, %d tests, %d random streams): %d divergences, %d property violations\n",
		v.pairs, len(lists), len(tests), *n, v.divergences, v.violations)
	if v.divergences > 0 || v.violations > 0 {
		return exitDiverge
	}
	return exitAgree
}

// verifier accumulates cross-check results across pairs.
type verifier struct {
	cfg         sim.Config
	props       bool
	stdout      io.Writer
	pairs       int
	divergences int
	violations  int
}

// checkPair cross-checks one (test, fault list) pair and, when enabled, the
// metamorphic property suite on top.
func (v *verifier) checkPair(t march.Test, list string, faults []linked.Fault) {
	v.pairs++
	for _, d := range oracle.CrossCheck(t, faults, v.cfg) {
		v.divergences++
		fmt.Fprintf(v.stdout, "DIVERGENCE %s vs %s: %s\n", t.Name, list, d)
	}
	if !v.props {
		return
	}
	violations, err := oracle.CheckProperties(t, faults, oracle.ConfigFromSim(v.cfg))
	if err != nil {
		// Property-engine errors (a transformed variant the oracle cannot
		// simulate) are findings, not usage errors: report and count them.
		v.violations++
		fmt.Fprintf(v.stdout, "VIOLATION %s vs %s: property engine: %v\n", t.Name, list, err)
		return
	}
	for _, viol := range violations {
		v.violations++
		fmt.Fprintf(v.stdout, "VIOLATION %s vs %s: %s\n", t.Name, list, viol)
	}
}

// checkWord cross-checks one test's word-path verdicts: internal/word versus
// the mask-based reference in internal/oracle, over the march-testable
// intra-word faults of the given width.
func (v *verifier) checkWord(t march.Test, width int) {
	v.pairs++
	bgs, err := word.Backgrounds(width)
	if err != nil {
		v.violations++
		fmt.Fprintf(v.stdout, "VIOLATION word w=%d: %v\n", width, err)
		return
	}
	diffs, err := oracle.CrossCheckWord(t, word.TestableIntraWordFaults(width), bgs, word.Config{Width: width})
	if err != nil {
		v.violations++
		fmt.Fprintf(v.stdout, "VIOLATION word %s w=%d: %v\n", t.Name, width, err)
		return
	}
	for _, d := range diffs {
		v.divergences++
		fmt.Fprintf(v.stdout, "DIVERGENCE word %s w=%d: %s\n", t.Name, width, d)
	}
}

// checkMport cross-checks one test's mport-path verdicts on its lifted (port
// B idle) form: internal/mport versus the event-based oracle reference, over
// the two-port weak-fault catalog.
func (v *verifier) checkMport(t march.Test) {
	v.pairs++
	lifted, err := mport.Lift(t)
	if err != nil {
		v.violations++
		fmt.Fprintf(v.stdout, "VIOLATION mport lift %s: %v\n", t.Name, err)
		return
	}
	diffs, err := oracle.CrossCheckMport(lifted, mport.Catalog())
	if err != nil {
		v.violations++
		fmt.Fprintf(v.stdout, "VIOLATION mport %s: %v\n", t.Name, err)
		return
	}
	for _, d := range diffs {
		v.divergences++
		fmt.Fprintf(v.stdout, "DIVERGENCE mport %s: %s\n", t.Name, d)
	}
}

// checkMinimize checks the generation-level invariant that the minimization
// phase never removes coverage: generating with and without minimization
// must both yield tests the oracle certifies Full on the list.
func (v *verifier) checkMinimize(list string, faults []linked.Fault) {
	v.pairs++
	for _, skip := range []bool{false, true} {
		label := "minimized"
		if skip {
			label = "unminimized"
		}
		res, err := core.Generate(faults, core.Options{
			Name:         fmt.Sprintf("GEN(%s,%s)", list, label),
			SkipMinimize: skip,
			FinalConfig:  v.cfg,
		})
		if err != nil {
			v.violations++
			fmt.Fprintf(v.stdout, "VIOLATION generate %s for %s: %v\n", label, list, err)
			continue
		}
		rep := oracle.Simulate(res.Test, faults, oracle.ConfigFromSim(v.cfg))
		if err := rep.Err(); err != nil {
			v.violations++
			fmt.Fprintf(v.stdout, "VIOLATION oracle on %s %s: %v\n", label, list, err)
			continue
		}
		if !rep.Full() {
			v.violations++
			fmt.Fprintf(v.stdout, "VIOLATION %s test for %s not Full under the oracle: %d/%d detected\n",
				label, list, rep.Detected(), rep.Total())
		}
		for _, d := range oracle.CrossCheck(res.Test, faults, v.cfg) {
			v.divergences++
			fmt.Fprintf(v.stdout, "DIVERGENCE generated(%s) vs %s: %s\n", label, list, d)
		}
	}
}
