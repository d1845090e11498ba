//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepFor sleeps in the kernel (nanosleep), not on the Go timer, whose
// wake-ups are a millisecond coarse when a P goes idle.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	// An early return (EINTR) is harmless: waitUntil re-reads the clock.
	_ = syscall.Nanosleep(&ts, nil)
}
