// Command perfbench is the end-to-end benchmark of the concentrator
// switch simulator. It runs one named workload closed-loop (one op at a
// time, from a single goroutine), checks every op's outputs outside the
// timed region, and prints the end-to-end metrics of the run; with
// -trace 1 it instead prints per-layer metrics taken from spans around
// the calls into each layer. See README.md for the workloads and the
// metrics.
//
// Usage:
//
//	perfbench -workload route-stream -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Earlier lines record the environment, the sample counts behind the
// percentiles, and a digest of the simulated statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its result; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// Op times are the thread's CPU time (see threadCPU).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: route-stream | pool-serve | session-faults | chaos-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", "", "traced runs write their spans to a file in this directory (empty: keep them in memory only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	opts := options{
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traceDir: *traceDir,
	}
	env := currentEnv()
	printInfo(stdout, "env", env)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, opts, env, stdout)
	} else {
		res, err = runMeasured(w, opts, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if res.firstFailure != "" {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed; first: %s\n",
			w.name, res.failed, res.attempted, res.firstFailure)
	}
	if err := json.NewEncoder(stdout).Encode(res.line()); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	return 0
}

// printInfo writes one "label {json}" line ahead of the result line.
func printInfo(w io.Writer, label string, v any) {
	b, _ := json.Marshal(v) // maps of numbers and strings always marshal
	fmt.Fprintf(w, "%s %s\n", label, b)
}
