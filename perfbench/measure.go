package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// setup_s is the median over this many fresh systems, or fewer where
// bringing one up is slow: the samples take about setupShare of the
// measured phase and at least minSetupSamples are taken. One bring-up
// varies by tens of percent from the next; the samples are spread over
// the whole measured phase, so that their median, like the ops',
// averages over the host's slower and faster stretches.
const (
	maxSetupSamples = 41
	minSetupSamples = 15
	setupShare      = 0.05
)

// setupWarmups fresh systems are built and discarded before the setup
// samples, so the process's first heap growth and page faults land in
// none of them.
const setupWarmups = 3

// digestOps is how many measured ops the digest covers. Every run
// serves at least this many, so the digest is a function of the seed.
const digestOps = 16

// options configures one run.
type options struct {
	seed     int64
	measure  time.Duration // length of the measured phase
	traceDir string
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opStats is what one op simulated. Throughput divides rounds and
// delivered by host time; the digest folds every field.
type opStats struct {
	Rounds, Delivered, Shed, Failovers, Scans, Detections, Regressions, JournalBytes int
}

func (s *opStats) add(o opStats) {
	s.Rounds += o.Rounds
	s.Delivered += o.Delivered
	s.Shed += o.Shed
	s.Failovers += o.Failovers
	s.Scans += o.Scans
	s.Detections += o.Detections
	s.Regressions += o.Regressions
	s.JournalBytes += o.JournalBytes
}

// system is one fresh instance of a workload's system under test.
type system interface {
	// prepare readies op i's inputs. It is untimed, except for the
	// first ops, whose inputs (fault and chaos schedules) are part of
	// bringing the system up.
	prepare(i int) error
	// op runs the prepared op: the timed unit of work.
	op() error
	// check verifies the op's outputs against the workload's contract
	// and reports what the op simulated, untimed. The stats are
	// meaningful even when the check fails.
	check() (opStats, error)
	// replay re-runs the op's layers on its inputs with a span around
	// each public call, as children of the op's span (traced runs
	// only, untimed). An error fails the op.
	replay(rec *recorder, op, parent int) error
	// layerMetrics derives the workload's per-layer metrics from the
	// spans and samples of a traced loop and the system's counts.
	layerMetrics(rec *recorder) map[string]metric
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// opName names the public call one op is; it names the op's span.
	opName string
	// firstOps is how many ops setup serves on each fresh system: one
	// per lazily built kernel scratch the ops reach.
	firstOps int
	// inputs generates the workload's traffic from the seed (untimed)
	// and returns the constructor of a fresh system over it.
	inputs func(seed int64) (func() (system, error), error)
}

// tally counts attempted and failed ops.
type tally struct {
	attempted, failed int
	first             string
}

// record books one op's outcome.
func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.first == "" {
		t.first = err.Error()
	}
}

// result is what a run prints as its last line.
type result struct {
	attempted, failed int
	firstFailure      string
	metrics           map[string]metric
}

func (r *result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
}

// bringUp builds one fresh system and serves its first ops, timing the
// whole by the serving thread's CPU time: the host time to bring the
// workload's system to serving.
func bringUp(w workload, build func() (system, error), t *tally) (system, time.Duration, error) {
	start := threadCPU()
	sys, err := build()
	if err != nil {
		return nil, 0, err
	}
	errs := make([]error, w.firstOps)
	for i := range errs {
		if errs[i] = sys.prepare(i); errs[i] == nil {
			errs[i] = sys.op()
		}
		if errs[i] == nil && i+1 < w.firstOps {
			// The next op overwrites this one's outputs: check now and
			// take the check's time back out of the setup time.
			c := threadCPU()
			_, errs[i] = sys.check()
			start += threadCPU() - c
		}
	}
	el := threadCPU() - start
	if last := w.firstOps - 1; errs[last] == nil {
		_, errs[last] = sys.check()
	}
	for _, err := range errs {
		t.record(err)
	}
	return sys, el, nil
}

// warmUp brings up setupWarmups fresh systems and returns the last,
// which goes on to serve, with its setup time; the process's first
// heap growth and page faults land in these, not in the setup samples.
func warmUp(w workload, build func() (system, error), t *tally) (sys system, el time.Duration, err error) {
	for i := 0; i < setupWarmups; i++ {
		if sys, el, err = bringUp(w, build, t); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
	}
	return sys, el, nil
}

// setupSamples is how many setup samples a measured phase of length d
// takes when one bring-up takes about one.
func setupSamples(d, one time.Duration) int {
	return min(maxSetupSamples, max(minSetupSamples, int(setupShare*float64(d)/float64(max(one, 1)))))
}

// setupSampler brings up fresh systems during a loop to measure setup_s.
type setupSampler struct {
	build func() (system, error)
	n     int             // samples to take, spread evenly over the loop
	times []time.Duration // setup time of each sample
}

// sample brings up one fresh system from a collected heap and discards
// it.
func (su *setupSampler) sample(w workload, t *tally) error {
	runtime.GC()
	_, el, err := bringUp(w, su.build, t)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	su.times = append(su.times, el)
	return nil
}

// loop is the outcome of one closed loop of ops.
type loop struct {
	durs      []time.Duration // the serving thread's CPU time in each op
	walls     []time.Duration // wall time of each op
	total     opStats         // summed over every op that ran
	digest    opStats         // summed over the first digestOps ops
	digestSum uint64          // FNV-1a over the first digestOps ops' stats
	next      int             // index of the op after the last one served
	cpu       time.Duration   // process CPU time (user+sys) over the loop
	allocated uint64          // heap bytes allocated over the loop
	gcCPU     float64         // the runtime's estimate of GC CPU seconds over the loop
	usedCPU   float64         // and of all CPU seconds the process used
}

// meter is a reading of the process-wide counters a loop accumulates.
type meter struct {
	cpu      time.Duration
	alloc    uint64
	gc, used float64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, used := gcCPU()
	return meter{processCPU(), ms.TotalAlloc, gc, used}
}

// account adds the counters' growth from a to b to the loop's.
func (l *loop) account(a, b meter) {
	l.cpu += b.cpu - a.cpu
	l.allocated += b.alloc - a.alloc
	l.gcCPU += b.gc - a.gc
	l.usedCPU += b.used - a.used
}

// allocSampleEvery is how often a traced loop samples an op's heap
// allocations (ReadMemStats stops the world, so not every op); the
// samples are recorded under opAllocs.
const (
	allocSampleEvery = 16
	opAllocs         = "op.allocs"
)

// serve runs ops first, first+1, ... closed-loop until d of wall time
// has passed and at least digestOps ops were served. Only the op call
// itself is timed; prepare, check and (with rec non-nil) the layer
// replay run outside. An op fails when prepare, the op, its check or
// its replay errs.
//
// With su non-nil, serve also brings up su.n fresh systems spread
// evenly over the loop, so that the setup samples see the same stretch
// of host time as the ops; their time, CPU and allocations are kept
// out of the loop's.
func serve(w workload, sys system, first int, d time.Duration, su *setupSampler, rec *recorder, t *tally) (*loop, error) {
	l := &loop{durs: make([]time.Duration, 0, 1<<16), walls: make([]time.Duration, 0, 1<<16), next: first}
	h := fnv.New64a()
	runtime.GC()
	block := readMeter()
	start := time.Now()
	for served := 0; served < digestOps || time.Since(start) < d; served++ {
		if su != nil && len(su.times) < su.n && time.Since(start) >= time.Duration(len(su.times))*d/time.Duration(su.n) {
			l.account(block, readMeter())
			if err := su.sample(w, t); err != nil {
				return nil, err
			}
			block = readMeter()
		}
		i := l.next
		l.next++
		if err := sys.prepare(i); err != nil {
			t.record(err)
			continue
		}
		sample := rec != nil && i%allocSampleEvery == 0
		var a0, a1 runtime.MemStats
		if sample {
			runtime.ReadMemStats(&a0)
		}
		s0 := now()
		err := sys.op()
		s1 := now()
		if sample {
			runtime.ReadMemStats(&a1)
			rec.sample(opAllocs, float64(a1.Mallocs-a0.Mallocs))
		}
		l.durs = append(l.durs, s1.cpu-s0.cpu)
		l.walls = append(l.walls, s1.wall.Sub(s0.wall))
		if err != nil {
			t.record(err)
			continue
		}
		st, err := sys.check()
		if rec != nil && err == nil {
			err = sys.replay(rec, i, rec.add(w.opName, i, -1, s0, s1))
		}
		t.record(err)
		l.total.add(st)
		if served < digestOps {
			l.digest.add(st)
			binary.Write(h, binary.LittleEndian, [8]int64{
				int64(st.Rounds), int64(st.Delivered), int64(st.Shed), int64(st.Failovers),
				int64(st.Scans), int64(st.Detections), int64(st.Regressions), int64(st.JournalBytes),
			})
		}
	}
	l.account(block, readMeter())
	// A loop cut short by a small d takes its remaining samples now.
	for su != nil && len(su.times) < su.n {
		if err := su.sample(w, t); err != nil {
			return nil, err
		}
	}
	l.digestSum = h.Sum64()
	return l, nil
}

// processCPU returns the process's user+sys CPU time, GC workers
// included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// getrusage cannot fail for RUSAGE_SELF and a valid pointer.
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU returns the runtime's estimates of the CPU seconds the process
// spent in GC and in all Go code, runtime included; the estimates are
// brought up to date at the end of each GC cycle.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// liveHeap returns the live heap in bytes after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based nearest-rank index of the q-quantile of n values.
func rank(n int, q float64) int {
	return max(0, min(n-1, int(math.Ceil(q*float64(n)))-1))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd derives the end-to-end metrics of a measured run.
func endToEnd(setup time.Duration, l *loop, t *tally, heap uint64) map[string]metric {
	var busy time.Duration
	for _, d := range l.durs {
		busy += d
	}
	rounds := float64(l.total.Rounds)
	return map[string]metric{
		"setup_s":            {setup.Seconds(), "s"},
		"rounds_per_s":       {rounds / busy.Seconds(), "1/s"},
		"delivered_per_s":    {float64(l.total.Delivered) / busy.Seconds(), "1/s"},
		"op_p50_us":          {us(quantile(l.durs, 0.50)), "us"},
		"op_p90_us":          {us(quantile(l.durs, 0.90)), "us"},
		"op_p99_us":          {us(quantile(l.durs, 0.99)), "us"},
		"cpu_us_per_round":   {us(l.cpu) / rounds, "us"},
		"alloc_kb_per_round": {float64(l.allocated) / 1024 / rounds, "KiB"},
		"live_heap_mb":       {float64(heap) / (1 << 20), "MiB"},
		"ok_share":           {float64(t.attempted-t.failed) / float64(t.attempted), "ratio"},
	}
}

// sampleInfo states the sample counts behind the timed metrics, and
// beside the op times, which are CPU times, the wall-clock median op
// time, which includes time stolen from the virtual CPU.
func sampleInfo(setupSamples int, l *loop) map[string]int {
	n := len(l.durs)
	return map[string]int{
		"setup_samples":     setupSamples,
		"wall_p50_us":       int(us(quantile(l.walls, 0.5))),
		"ops":               n,
		"ops_beyond_p90":    n - 1 - rank(n, 0.90),
		"ops_beyond_p99":    n - 1 - rank(n, 0.99),
		"rounds":            l.total.Rounds,
		"delivered":         l.total.Delivered,
		"first_measured_op": l.next - n,
	}
}

// digestInfo is the digest of the first digestOps measured ops'
// simulated statistics: equal digests mean bit-identical behaviour.
func digestInfo(l *loop) map[string]any {
	return map[string]any{
		"ops":           digestOps,
		"fnv64":         fmt.Sprintf("%016x", l.digestSum),
		"rounds":        l.digest.Rounds,
		"delivered":     l.digest.Delivered,
		"shed":          l.digest.Shed,
		"failovers":     l.digest.Failovers,
		"scans":         l.digest.Scans,
		"detections":    l.digest.Detections,
		"regressions":   l.digest.Regressions,
		"journal_bytes": l.digest.JournalBytes,
	}
}

// runMeasured is the untraced run: setup_s over fresh systems, then the
// measured closed loop on the last of them.
func runMeasured(w workload, o options, out io.Writer) (*result, error) {
	build, err := w.inputs(o.seed)
	if err != nil {
		return nil, err
	}
	var t tally
	sys, one, err := warmUp(w, build, &t)
	if err != nil {
		return nil, err
	}
	su := &setupSampler{build: build, n: setupSamples(o.measure, one)}
	l, err := serve(w, sys, w.firstOps, o.measure, su, nil, &t)
	if err != nil {
		return nil, err
	}
	heap := liveHeap()
	runtime.KeepAlive(sys)
	printInfo(out, "samples", sampleInfo(len(su.times), l))
	printInfo(out, "digest", digestInfo(l))
	return &result{t.attempted, t.failed, t.first, endToEnd(quantile(su.times, 0.5), l, &t, heap)}, nil
}

// Shares of the traced run's time: the workload untraced (the
// reference for the tracing overhead), the workload traced, and a
// short traced probe of each other workload, so that every per-layer
// metric is measured in every traced run.
const (
	untracedShare = 0.25
	tracedShare   = 0.45
)

// runTraced is the traced run. It serves the workload untraced and then
// traced on the same system, reports the tracing overhead as the ratio
// of the two phases' median op times, and takes the per-layer metrics
// owned by the other workloads from short traced probes of them.
func runTraced(w workload, o options, env map[string]any, out io.Writer) (*result, error) {
	var t tally
	ms := map[string]metric{}
	var recs []*recorder
	others := workloadsExcept(w.name)
	for _, x := range append([]workload{w}, others...) {
		build, err := x.inputs(o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.name, err)
		}
		sys, _, err := bringUp(x, build, &t)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", x.name, err)
		}
		rec := newRecorder(x.name)
		recs = append(recs, rec)
		next := x.firstOps
		if x.name == w.name {
			u, err := serve(x, sys, next, time.Duration(untracedShare*float64(o.measure)), nil, nil, &t)
			if err != nil {
				return nil, err
			}
			tr, err := serve(x, sys, u.next, time.Duration(tracedShare*float64(o.measure)), nil, rec, &t)
			if err != nil {
				return nil, err
			}
			base := quantile(u.durs, 0.5)
			ms["trace.overhead_share"] = metric{float64(quantile(tr.durs, 0.5)-base) / float64(base), "ratio"}
			ms["runtime.gc_cpu_share"] = metric{u.gcCPU / max(u.usedCPU, 1e-9), "ratio"}
			printInfo(out, "digest", digestInfo(u))
		} else {
			share := (1 - untracedShare - tracedShare) / float64(len(others))
			if _, err := serve(x, sys, next, time.Duration(share*float64(o.measure)), nil, rec, &t); err != nil {
				return nil, err
			}
		}
		for k, v := range sys.layerMetrics(rec) {
			ms[k] = v
		}
	}
	if o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, o.seed))
		if err := writeSpans(path, env, recs); err != nil {
			return nil, err
		}
		printInfo(out, "spans", map[string]string{"file": path})
	}
	return &result{t.attempted, t.failed, t.first, ms}, nil
}

// writeSpans writes every recorder's spans to path.
func writeSpans(path string, env map[string]any, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTSV(f, env, recs); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
