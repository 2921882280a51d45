// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable timer/event queue, and a seeded random
// number generator. Every experiment in this repository runs on top of it,
// which makes all figures exactly reproducible for a given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. It is never related to the wall clock.
type Time = time.Duration

// Event is a scheduled callback. Cancelling an event after it has fired
// is a no-op.
type Event struct {
	at     Time
	seq    uint64 // tie-breaker: FIFO among events at the same instant
	fn     func()
	index  int // heap index, -1 when not queued
	fired  bool
	cancel bool
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event fired.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	e.cancel = true
}

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all model code runs inside event callbacks.
type Engine struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	rng     *rand.Rand
	stopped bool
	// Processed counts events executed since construction.
	Processed uint64
}

// NewEngine returns an engine with its virtual clock at zero and an RNG
// seeded with seed (deterministic per seed).
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fn runs at the current instant, after already-queued events for
// this instant).
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past panics:
// it is always a model bug, and silently reordering would break causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.nextSeq, fn: fn, index: -1}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

// Stop makes the current Run call return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.queue) }

// Run executes events in timestamp order until the queue is empty, the
// clock would pass until, or Stop is called. It returns the virtual time
// at which it stopped. Events scheduled exactly at until are executed.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.at > until {
			e.now = until
			return e.now
		}
		heap.Pop(&e.queue)
		e.now = next.at
		if next.cancel {
			continue
		}
		next.fired = true
		e.Processed++
		next.fn()
	}
	if e.now < until && len(e.queue) == 0 {
		e.now = until
	}
	return e.now
}

// RunUntilIdle executes events until none remain or Stop is called, with no
// time bound, and returns the final virtual time.
func (e *Engine) RunUntilIdle() Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := heap.Pop(&e.queue).(*Event)
		e.now = next.at
		if next.cancel {
			continue
		}
		next.fired = true
		e.Processed++
		next.fn()
	}
	return e.now
}

// Timer is a restartable one-shot timer bound to an engine, in the style of
// time.Timer but in virtual time. The zero value is not usable; create with
// NewTimer.
type Timer struct {
	eng *Engine
	ev  *Event
	fn  func()
}

// NewTimer returns a stopped timer that runs fn when it expires.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, fn: fn}
}

// Reset (re)arms the timer to fire after d. Any previous scheduling is
// cancelled.
func (t *Timer) Reset(d Time) {
	t.Stop()
	t.ev = t.eng.Schedule(d, t.fn)
}

// Stop disarms the timer if armed.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

// Armed reports whether the timer is scheduled and not yet fired/cancelled.
func (t *Timer) Armed() bool {
	return t.ev != nil && !t.ev.fired && !t.ev.cancel
}
