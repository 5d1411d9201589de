package main

import (
	"syscall"
	"time"

	"marchgen/internal/march"
)

// specLength is the length (operations per cell) of a march test in its
// ASCII notation, or 0 if the notation does not parse (the caller's
// correctness check reports that case).
func specLength(spec string) int {
	t, err := march.Parse("t", spec)
	if err != nil {
		return 0
	}
	return t.Length()
}

// cpuNow is the CPU time the process has used so far, on all its threads
// (the garbage collector's included). Unlike wall time it does not count
// time the host runs something else on the process's CPUs.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
