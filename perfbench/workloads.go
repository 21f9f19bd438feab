package main

import "math/rand"

// workloads are the benchmark's workloads, in the order README.md
// describes them.
var workloads = []workload{
	{name: "route-stream", opName: "switchsim.Runner.Run", firstOps: len(routeFamilies), inputs: routeInputs},
	{name: "pool-serve", opName: "pool.Pool.Run", firstOps: 1, inputs: poolInputs},
	{name: "session-faults", opName: "health.RunFaultAwareSession", firstOps: 1, inputs: sessionInputs},
	{name: "chaos-mixed", opName: "chaos.Run", firstOps: 1, inputs: chaosInputs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workloadsExcept returns every workload but the named one.
func workloadsExcept(name string) []workload {
	var out []workload
	for _, w := range workloads {
		if w.name != name {
			out = append(out, w)
		}
	}
	return out
}

// stratifiedLoads returns n loads spread evenly over [lo, hi] in a
// seeded order, so that every seed offers the same mix of loads.
func stratifiedLoads(rng *rand.Rand, n int, lo, hi float64) []float64 {
	loads := make([]float64, n)
	for i, j := range rng.Perm(n) {
		loads[i] = lo + (hi-lo)*(float64(j)+0.5)/float64(n)
	}
	return loads
}
