package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine parses the result line a run printed last.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, out)
	}
	return res
}

// A short run of each workload, untraced and traced, prints every
// metric BENCHMARK.json names, with its unit, and no other.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	for _, trace := range []string{"0", "1"} {
		want := map[string]string{}
		if trace == "0" {
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range spec.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		for _, w := range spec.Workloads {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.05", "--trace", trace}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			res := lastLine(t, stdout.String())
			if len(res) != 4 {
				t.Errorf("%s trace %s: result has keys %v, want correct, attempted, failed, metrics", w.Name, trace, keys(res))
			}
			var correct bool
			var attempted, failed int
			var metrics map[string]metric
			for k, v := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
				if err := json.Unmarshal(res[k], v); err != nil {
					t.Fatalf("%s trace %s: key %q: %v", w.Name, trace, k, err)
				}
			}
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d: %s", w.Name, trace, correct, attempted, failed, stderr.String())
			}
			for name, unit := range want {
				m, ok := metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %s: metric %s in %q, want %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %s: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// flipRoute flips one delivered payload bit after every route-stream op.
type flipRoute struct{ *routeSystem }

func (f flipRoute) op() error {
	if err := f.routeSystem.op(); err != nil {
		return err
	}
	f.res.Delivered[0].Payload[0] ^= 1
	return nil
}

// flipPool flips one delivered payload bit after every pool-serve op.
type flipPool struct{ *poolSystem }

func (f flipPool) op() error {
	if err := f.poolSystem.op(); err != nil {
		return err
	}
	f.rr.Result.Delivered[0].Payload[0] ^= 1
	return nil
}

// An output with one payload bit flipped counts as a failure, not as ok.
func TestFlippedPayloadBitFails(t *testing.T) {
	for _, tc := range []struct {
		workload string
		flip     func(system) system
	}{
		{"route-stream", func(s system) system { return flipRoute{s.(*routeSystem)} }},
		{"pool-serve", func(s system) system { return flipPool{s.(*poolSystem)} }},
	} {
		w, _ := workloadByName(tc.workload)
		build, err := w.inputs(3)
		if err != nil {
			t.Fatal(err)
		}
		var ok tally
		sys, _, err := bringUp(w, build, &ok)
		if err != nil || ok.failed != 0 {
			t.Fatalf("%s: setup: %v, %d failed: %s", w.name, err, ok.failed, ok.first)
		}
		var bad tally
		l, err := serve(w, tc.flip(sys), w.firstOps, 0, nil, nil, &bad)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.durs) < digestOps || bad.failed != bad.attempted {
			t.Errorf("%s: %d of %d ops with a flipped bit failed", w.name, bad.failed, bad.attempted)
		}
		if ms := endToEnd(time.Millisecond, l, &bad, 1); ms["ok_share"].Value != 0 {
			t.Errorf("%s: ok_share %v with every output corrupted", w.name, ms["ok_share"].Value)
		}
	}
}

// The digest is a function of the seed: two fresh systems serve the
// same simulated statistics.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		var sums [2]uint64
		for i := range sums {
			build, err := w.inputs(11)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			sys, _, err := bringUp(w, build, &tl)
			if err != nil {
				t.Fatal(err)
			}
			l, err := serve(w, sys, w.firstOps, 0, nil, nil, &tl)
			if err != nil || tl.failed != 0 {
				t.Fatalf("%s: %v, %d failed: %s", w.name, err, tl.failed, tl.first)
			}
			sums[i] = l.digestSum
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: digests %016x and %016x for one seed", w.name, sums[0], sums[1])
		}
	}
}
