package main

import (
	"syscall"
	"time"
)

// prSetTimerslack is prctl's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// preciseSleeper prepares the calling goroutine, which must be locked
// to its OS thread, for sleeps that wake within a few µs of their
// deadline: the thread's timer slack drops to 1 ns and each sleep is a
// nanosleep(2) on that thread. The Go timer path would wake up to a
// millisecond late while another goroutine keeps a P busy.
func preciseSleeper() func(time.Duration) {
	// Best effort: without it sleeps wake later, which control.late_max_us shows.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return func(d time.Duration) {
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		for {
			var rem syscall.Timespec
			if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
				return
			}
			ts = rem
		}
	}
}
