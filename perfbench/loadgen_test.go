package main

import (
	"sync"
	"testing"
	"time"
)

// A sink that takes longer per operation than the schedule's spacing
// must show latency and lateness growing along the schedule: the
// generator keeps the due times instead of slowing down.
func TestOpenLoopStalledSinkShowsGrowingLatency(t *testing.T) {
	const n = 20
	l := &openLoop{
		due:     schedule(n, 200, 0), // every 5ms
		workers: 1,
		exec:    func(_, _ int) { time.Sleep(20 * time.Millisecond) },
	}
	tim := l.run(time.Now())
	for i := 1; i < n; i++ {
		if tim[i].latency() <= tim[i-1].latency() || tim[i].lateness() <= tim[i-1].lateness() {
			t.Fatalf("op %d: latency %v lateness %v not above op %d's %v %v",
				i, tim[i].latency(), tim[i].lateness(), i-1, tim[i-1].latency(), tim[i-1].lateness())
		}
	}
	// 20 ops of 20ms due over 95ms: the last waits for 19 before it.
	if last := tim[n-1]; last.lateness() < 250*time.Millisecond || last.latency() < 270*time.Millisecond {
		t.Errorf("last op lateness %v latency %v, want >= 250ms and >= 270ms", last.lateness(), last.latency())
	}
	for i, tm := range tim {
		if tm.due != l.due[i] {
			t.Fatalf("op %d due %v, scheduled %v", i, tm.due, l.due[i])
		}
	}
}

func TestOpenLoopFastSinkKeepsSchedule(t *testing.T) {
	l := &openLoop{due: schedule(50, 500, 0), workers: 2, exec: func(_, _ int) {}}
	start := time.Now()
	tim := l.run(start)
	if el := time.Since(start); el < 98*time.Millisecond {
		t.Errorf("50 ops at 500/s finished in %v; the generator ran ahead of its schedule", el)
	}
	for i, tm := range tim {
		if tm.sent < tm.due {
			t.Fatalf("op %d sent at %v before due %v", i, tm.sent, tm.due)
		}
	}
}

// Ordered operations complete in schedule order even when several
// workers could take them at once.
func TestOpenLoopOrderedOpsCompleteInOrder(t *testing.T) {
	const n = 40
	ordered := make([]bool, n)
	for i := range ordered {
		ordered[i] = i%2 == 0
	}
	var mu sync.Mutex
	var got []int
	l := &openLoop{
		due:     make([]time.Duration, n), // all due at once
		ordered: ordered,
		workers: 4,
		exec: func(_, i int) {
			if i%8 == 0 {
				time.Sleep(2 * time.Millisecond) // let later ops overtake if they could
			}
			if ordered[i] {
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
			}
		},
	}
	l.run(time.Now())
	for k, i := range got {
		if i != 2*k {
			t.Fatalf("ordered ops completed as %v", got)
		}
	}
}
