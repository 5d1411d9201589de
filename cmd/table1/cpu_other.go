//go:build !unix

package main

import "time"

// processCPU reports that process CPU time is not measured on this
// platform; the table's CPU column then reads NaN.
func processCPU() (time.Duration, bool) { return 0, false }
