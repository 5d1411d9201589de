package main

import (
	"container/heap"
	"sync"
	"time"
)

// task is one scheduled exchange of an open loop: it becomes eligible at
// due whether or not earlier exchanges have finished, which is what makes
// the loop open. sent is when a free worker actually picked it up.
type task struct {
	due  time.Time
	sent time.Time
	seq  int
	op   *op
}

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// maxNap bounds how long an idle worker sleeps before looking at the
// schedule again, so a follow-up task pushed by the other worker is never
// left waiting behind a long sleep.
const maxNap = 5 * time.Millisecond

// runOpenLoop executes tasks on a fixed set of workers, each taking the
// earliest due task once it is due. A task that is due while every worker
// is busy waits in the schedule; callers time operations from task.due, so
// that wait counts against the operation. exec may return follow-up tasks
// (job polls), which join the schedule. runOpenLoop returns once the
// schedule is empty and no task is executing.
func runOpenLoop(tasks []*task, workers int, exec func(worker int, t *task) []*task) {
	var mu sync.Mutex
	h := taskHeap(append([]*task(nil), tasks...))
	for i, t := range h {
		t.seq = i
	}
	heap.Init(&h)
	seq := len(h)
	inflight := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				if h.Len() == 0 {
					busy := inflight > 0
					mu.Unlock()
					if !busy {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				if wait := time.Until(h[0].due); wait > 0 {
					mu.Unlock()
					time.Sleep(min(wait, maxNap))
					continue
				}
				t := heap.Pop(&h).(*task)
				inflight++
				mu.Unlock()

				t.sent = time.Now()
				more := exec(w, t)

				mu.Lock()
				for _, m := range more {
					m.seq = seq
					seq++
					heap.Push(&h, m)
				}
				inflight--
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}
