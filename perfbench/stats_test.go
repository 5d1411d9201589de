package main

import (
	"sync"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so tail must sort
		}
		v, pct, ok := tail(xs)
		if !ok || pct != tc.want {
			t.Fatalf("n=%d: tail at p%v (ok=%v), want p%v", tc.n, pct, ok, tc.want)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: tail %v has %d samples beyond it, want >= %d", tc.n, v, beyond, minBeyond)
		}
		// The next ladder step up must have fewer than minBeyond beyond it.
		for i, p := range tailLadder {
			if p == pct && i > 0 {
				if up := tc.n - nearestRank(tailLadder[i-1], tc.n); up >= minBeyond {
					t.Errorf("n=%d: p%v has %d beyond and should have been reported", tc.n, tailLadder[i-1], up)
				}
			}
		}
	}
}

func TestTailFallsBackToMedianWithFewSamples(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	v, pct, ok := tail(xs)
	if ok || v != 3 || pct != 50 {
		t.Fatalf("tail of 5 samples = %v, p%v, ok=%v; want the median 3 at p50, ok=false", v, pct, ok)
	}
	if _, _, ok := tail(make([]float64, 39)); ok {
		t.Fatal("39 samples reported a tail: p75 leaves only 9 beyond")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

// TestOpenLoopTimesFromSchedule checks that a task due while both workers
// are busy waits in the schedule and that the wait is visible from its
// scheduled time: three tasks due at once on two workers, each taking
// 30ms, leave the third sent at least 30ms late and done at least 60ms
// after it was due.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	const work = 30 * time.Millisecond
	due := time.Now().Add(5 * time.Millisecond)
	var tasks []*task
	for i := 0; i < 3; i++ {
		tasks = append(tasks, &task{due: due, op: &op{}})
	}
	var mu sync.Mutex
	done := map[*task]time.Time{}
	runOpenLoop(tasks, 2, func(_ int, tk *task) []*task {
		time.Sleep(work)
		mu.Lock()
		done[tk] = time.Now()
		mu.Unlock()
		return nil
	})
	for _, tk := range tasks {
		if tk.sent.Before(tk.due) {
			t.Fatalf("task sent %v before it was due", tk.due.Sub(tk.sent))
		}
	}
	last := tasks[2] // equal due times run in schedule order
	if got := last.sent.Sub(last.due); got < work {
		t.Errorf("third task sent %v after due, want >= %v (it waited for a worker)", got, work)
	}
	if got := done[last].Sub(last.due); got < 2*work {
		t.Errorf("third task done %v after due, want >= %v", got, 2*work)
	}
}

// TestOpenLoopRunsFollowUps checks that tasks returned by exec (job polls)
// are scheduled and executed before the loop returns.
func TestOpenLoopRunsFollowUps(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	o := &op{}
	runOpenLoop([]*task{{due: time.Now(), op: o}}, 2, func(_ int, tk *task) []*task {
		mu.Lock()
		defer mu.Unlock()
		runs++
		if runs < 4 {
			return []*task{{due: time.Now().Add(time.Millisecond), op: o}}
		}
		return nil
	})
	if runs != 4 {
		t.Fatalf("ran %d exchanges, want 4", runs)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	parent := span{ID: 1, Start: at(0), End: at(100)}
	children := []span{
		{Parent: 1, Start: at(10), End: at(30)},
		{Parent: 1, Start: at(20), End: at(50)},  // overlaps the first: counted once
		{Parent: 1, Start: at(90), End: at(120)}, // runs past the parent: clipped
	}
	if got, want := selfTime(parent, children), 50*time.Millisecond; got != want {
		t.Fatalf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self time without children = %v, want 100ms", got)
	}
}

func TestTracerSelfTimesByName(t *testing.T) {
	tr := &tracer{}
	t0 := time.Unix(0, 0)
	tr.add(span{ID: 1, Name: "bench.op", Start: t0, End: t0.Add(10 * time.Millisecond)})
	tr.add(span{ID: 2, Parent: 1, Name: "layer", Start: t0.Add(2 * time.Millisecond), End: t0.Add(8 * time.Millisecond)})
	got := tr.selfTimesMS("bench.op")
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("self times = %v, want [4]", got)
	}
	var nilTracer *tracer
	if id, end := nilTracer.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	} else {
		end()
	}
}
