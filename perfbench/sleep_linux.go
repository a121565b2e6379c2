package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread until t with nanosleep(2). The
// runtime's timers wake a sleeping goroutine up to a millisecond late on
// an idle process, which would put the generator's own lateness into
// every open-loop latency.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
