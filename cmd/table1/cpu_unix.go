//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time the process has used so far,
// across all its threads.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
