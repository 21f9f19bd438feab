package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used. The
// benchmark locks its goroutine to one thread, so differences of
// threadCPU time the benchmark's own calls, GC assists included. Time a
// hypervisor steals from the virtual CPU, and time other threads run,
// are not counted.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// clock_gettime cannot fail for a valid clock id and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
