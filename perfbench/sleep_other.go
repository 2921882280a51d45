//go:build !linux

package main

import "time"

// preciseSleeper falls back to time.Sleep where nanosleep(2) and timer
// slack control are unavailable.
func preciseSleeper() func(time.Duration) { return time.Sleep }
