//go:build !amd64

package main

// cpuModel reports no model where the brand string is not read.
func cpuModel() string { return "unknown" }
