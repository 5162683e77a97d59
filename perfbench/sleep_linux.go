package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. Go's runtime timers wake sub-millisecond
// sleeps on Linux up to a millisecond late, which would swamp the
// sub-millisecond request latencies the open loop measures, so the wait
// is a nanosleep system call instead (tens of microseconds late).
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
