//go:build !linux

package main

import "time"

// sleepFor is the portable fallback for the Linux nanosleep pacer. The
// Go timer can overshoot by a millisecond; load.late_* reports it.
func sleepFor(d time.Duration) { time.Sleep(d) }
