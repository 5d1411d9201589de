package sim

import (
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/march"
)

// TestFullCoverageDeterministic pins the parallel scan's contract: whatever
// Config.Workers is, the reported miss is the one the sequential fault-list
// scan hits first.
func TestFullCoverageDeterministic(t *testing.T) {
	faults := faultlist.List1()
	test := march.MarchSS // misses part of List1, so there is a miss to race for

	seqCfg := DefaultConfig()
	seqCfg.Workers = 1
	full, seqMiss, err := FullCoverage(test, faults, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	if full || seqMiss == nil {
		t.Fatalf("%s unexpectedly covers List1", test.Name)
	}

	for _, workers := range []int{2, 4, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		for rep := 0; rep < 3; rep++ {
			full, miss, err := FullCoverage(test, faults, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if full || miss == nil {
				t.Fatalf("workers=%d rep=%d: got full coverage, want miss", workers, rep)
			}
			if miss.ID() != seqMiss.ID() {
				t.Fatalf("workers=%d rep=%d: missed %s, sequential scan misses %s first",
					workers, rep, miss.ID(), seqMiss.ID())
			}
		}
	}
}

// TestEmptyFaultList pins the aligned empty-list semantics: FullCoverage is
// vacuously true, Simulate returns an empty report, and that report counts
// as Full — the three agree that no fault escapes an empty list.
func TestEmptyFaultList(t *testing.T) {
	cfg := DefaultConfig()
	full, miss, err := FullCoverage(march.MarchSL, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full || miss != nil {
		t.Fatalf("FullCoverage(empty) = (%v, %v), want (true, nil)", full, miss)
	}
	r := Simulate(march.MarchSL, nil, cfg)
	if r.Total() != 0 || r.Err() != nil {
		t.Fatalf("Simulate(empty) returned %d results, err %v", r.Total(), r.Err())
	}
	if !r.Full() {
		t.Fatal("Simulate(empty).Full() = false, want vacuous true")
	}
}

// TestSimulateMatchesDetectsFault checks the worker fan-out returns the same
// per-fault outcomes as one-at-a-time calls, in fault-list order.
func TestSimulateMatchesDetectsFault(t *testing.T) {
	faults := faultlist.List2()
	cfg := DefaultConfig()
	cfg.Workers = 4
	r := Simulate(march.MarchABL1, faults, cfg)
	if got := r.Total(); got != len(faults) {
		t.Fatalf("Total() = %d, want %d", got, len(faults))
	}
	for i, res := range r.Results {
		if res.Fault.ID() != faults[i].ID() {
			t.Fatalf("result %d is %s, want %s (order must match the list)", i, res.Fault.ID(), faults[i].ID())
		}
		det, wit, err := DetectsFault(march.MarchABL1, faults[i], cfg)
		if err != nil || res.Err != nil {
			t.Fatalf("unexpected error: %v / %v", err, res.Err)
		}
		if det != res.Detected {
			t.Fatalf("fault %s: Simulate says %v, DetectsFault says %v", faults[i].ID(), res.Detected, det)
		}
		if (wit == nil) != (res.Witness == nil) || (wit != nil && wit.String() != res.Witness.String()) {
			t.Fatalf("fault %s: witness mismatch", faults[i].ID())
		}
	}
}
