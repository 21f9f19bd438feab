//go:build !linux

package main

import "time"

var clockEpoch = time.Now()

// threadCPU falls back to wall time where the thread CPU clock is not
// read.
func threadCPU() time.Duration { return time.Since(clockEpoch) }
