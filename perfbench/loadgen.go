package main

import (
	"sync"
	"time"
)

// opTiming is the generator's record of one operation. All instants are
// offsets from the run's start; due is fixed by the schedule before the
// run, so a stall in the system shows as lateness and latency of every
// operation due behind it rather than as a lower offered rate.
type opTiming struct {
	due, dispatched, sent, done time.Duration
}

// latency is the operation's due-to-completion time.
func (t opTiming) latency() time.Duration { return t.done - t.due }

// lateness is how long after its due time the operation went out: the
// generator's own wake-up delay plus the wait for a free connection.
func (t opTiming) lateness() time.Duration { return t.sent - t.due }

// openLoop sends operations on a fixed schedule regardless of how fast
// they complete. One dispatcher hands each operation to a pool of
// workers at its due time; workers take them in due order.
type openLoop struct {
	// due holds each operation's offset from the start, ascending.
	due []time.Duration
	// ordered marks operations that must complete in schedule order
	// relative to each other (writes, whose effect depends on order):
	// such an operation is sent only after the previous ordered one
	// completed.
	ordered []bool
	workers int
	// exec performs operation i on the given worker and returns once
	// its response has been consumed.
	exec func(worker, i int)
}

// run executes every operation and returns their timings once all have
// completed. start anchors the schedule.
func (l *openLoop) run(start time.Time) []opTiming {
	n := len(l.due)
	tim := make([]opTiming, n)
	after := make([]chan struct{}, n) // closed when the previous ordered op completes
	done := make([]chan struct{}, n)  // closed when ordered op i completes
	var last chan struct{}
	for i := range tim {
		tim[i].due = l.due[i]
		if l.ordered != nil && l.ordered[i] {
			after[i] = last
			last = make(chan struct{})
			done[i] = last
		}
	}
	queue := make(chan int, n) // sized to the schedule, so the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if c := after[i]; c != nil {
					<-c
				}
				tim[i].sent = time.Since(start)
				l.exec(w, i)
				tim[i].done = time.Since(start)
				if c := done[i]; c != nil {
					close(c)
				}
			}
		}(w)
	}
	for i, d := range l.due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		tim[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return tim
}
