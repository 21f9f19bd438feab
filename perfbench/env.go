package main

import "runtime"

// currentEnv records what a result was measured on, so that results
// from different machines are not compared unawares.
func currentEnv() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"platform":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}
