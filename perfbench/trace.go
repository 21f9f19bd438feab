package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"
)

// stamp is a point in wall time and in the serving thread's CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), threadCPU()} }

// span is one timed call into a layer, made from the benchmark's code.
type span struct {
	name       string
	op         int           // the op whose inputs the call ran on
	parent     int           // index of the span that caused this one; -1 for a root
	start, end time.Duration // wall time since the recorder's epoch
	cpu        time.Duration // the serving thread's CPU time in the call
}

// recorder keeps a traced loop's spans in memory until the run ends.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
	counts   map[string][]float64 // per-call samples, such as allocations
}

func newRecorder(workload string) *recorder {
	return &recorder{
		workload: workload,
		epoch:    time.Now(),
		spans:    make([]span, 0, 1<<14),
		counts:   map[string][]float64{},
	}
}

// add records a span timed by the caller and returns its index.
func (r *recorder) add(name string, op, parent int, a, b stamp) int {
	r.spans = append(r.spans, span{name, op, parent, a.wall.Sub(r.epoch), b.wall.Sub(r.epoch), b.cpu - a.cpu})
	return len(r.spans) - 1
}

// call runs f inside a span and returns the span's index.
func (r *recorder) call(name string, op, parent int, f func()) int {
	a := now()
	f()
	return r.add(name, op, parent, a, now())
}

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, op, parent int) int {
	a := now()
	i := r.add(name, op, parent, a, a)
	r.spans[i].cpu = -a.cpu // end adds the closing CPU time
	return i
}

func (r *recorder) end(i int) {
	b := now()
	r.spans[i].end = b.wall.Sub(r.epoch)
	r.spans[i].cpu += b.cpu
}

// sample records one observation of a per-call count, such as the
// allocations of one call.
func (r *recorder) sample(name string, v float64) {
	r.counts[name] = append(r.counts[name], v)
}

// durations returns the CPU time of every span named name.
func (r *recorder) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range r.spans {
		if s.name == name {
			ds = append(ds, s.cpu)
		}
	}
	return ds
}

// median returns the median CPU time of the spans named name, in µs.
func (r *recorder) median(name string) float64 {
	return us(quantile(r.durations(name), 0.5))
}

// childDiffs returns, for every span named parent with a child named
// child, the parent's CPU time minus the child's.
func (r *recorder) childDiffs(parent, child string) []time.Duration {
	var ds []time.Duration
	for _, s := range r.spans {
		if s.name == child && s.parent >= 0 && r.spans[s.parent].name == parent {
			ds = append(ds, r.spans[s.parent].cpu-s.cpu)
		}
	}
	return ds
}

// childRatios returns, for every span with children named num and den,
// the ratio of their CPU times.
func (r *recorder) childRatios(num, den string) []float64 {
	nums := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.name == num && s.parent >= 0 {
			nums[s.parent] = s.cpu
		}
	}
	var out []float64
	for _, s := range r.spans {
		if n, ok := nums[s.parent]; ok && s.name == den && s.cpu > 0 {
			out = append(out, float64(n)/float64(s.cpu))
		}
	}
	return out
}

// mean returns the mean of vs (0 when empty).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// medianOf returns the nearest-rank median of vs (0 when empty).
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[rank(len(s), 0.5)]
}

// allocsPerCall counts the heap allocations of one call of f, averaged
// over runs calls.
func allocsPerCall(runs int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

// writeTSV writes the environment as a comment line, then one line per
// span: workload, op, index, name, parent index, wall start and end in
// ns since the recorder's epoch, and CPU time in ns.
func writeTSV(w io.Writer, env map[string]any, recs []*recorder) error {
	bw := bufio.NewWriter(w)
	b, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "# env %s\n", b)
	fmt.Fprintln(bw, strings.Join([]string{"workload", "op", "span", "name", "parent", "start_ns", "end_ns", "cpu_ns"}, "\t"))
	for _, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", r.workload, s.op, i, s.name, s.parent, s.start, s.end, s.cpu)
		}
	}
	return bw.Flush()
}
