package main

import (
	"fmt"
	"math/rand"
	"time"

	"concentrators/internal/core"
	"concentrators/internal/switchsim"
)

// route-stream: pre-generated rounds at n = 4096 cycling through the
// four kernel families, each through its own switchsim.Runner. This is
// the workload where the healthy word kernel and the zero-alloc Runner
// do nearly all the work.
const (
	routeN            = 4096
	routeRounds       = 64 // pre-generated rounds per family
	routePayloadBits  = 8
	routeMinLoad      = 0.1
	routeMaxLoad      = 0.9
	routeAllocRuns    = 8  // RouteInto calls per allocation sample
	routeAllocEveryOp = 64 // traced ops between allocation samples
)

// routeFamilies are the four kernel families of the concbench perf
// suite, in the order route-stream cycles through them.
var routeFamilies = []string{"revsort", "columnsort", "full_revsort", "full_columnsort"}

// routeSwitches builds one switch per family at width n, shaped as in
// the concbench perf suite.
func routeSwitches(n int) ([]core.RouterInto, error) {
	rev, err := core.NewRevsortSwitch(n, n*3/4)
	if err != nil {
		return nil, err
	}
	col, err := core.NewColumnsortSwitchBeta(n, n*3/4, 0.75)
	if err != nil {
		return nil, err
	}
	frev, err := core.NewFullRevsortHyper(n, n)
	if err != nil {
		return nil, err
	}
	// Widest s whose r = n/s still satisfies s | r and r ≥ 2(s−1)².
	fs := 1
	for _, s := range []int{16, 8, 4, 2} {
		if r := n / s; n%s == 0 && r%s == 0 && r >= 2*(s-1)*(s-1) {
			fs = s
			break
		}
	}
	fcol, err := core.NewFullColumnsortHyper(n/fs, fs, n)
	if err != nil {
		return nil, err
	}
	return []core.RouterInto{rev, col, frev, fcol}, nil
}

func routeInputs(seed int64) (func() (system, error), error) {
	rng := rand.New(rand.NewSource(seed))
	traffic := make([][][]switchsim.Message, len(routeFamilies))
	for f := range traffic {
		for _, load := range stratifiedLoads(rng, routeRounds, routeMinLoad, routeMaxLoad) {
			traffic[f] = append(traffic[f], switchsim.RandomMessages(rng, routeN, load, routePayloadBits))
		}
	}
	return func() (system, error) {
		sws, err := routeSwitches(routeN)
		if err != nil {
			return nil, err
		}
		s := &routeSystem{traffic: traffic, switches: sws}
		for _, sw := range sws {
			s.runners = append(s.runners, switchsim.NewRunner(sw))
		}
		return s, nil
	}, nil
}

type routeSystem struct {
	traffic  [][][]switchsim.Message // [family][round]
	switches []core.RouterInto
	runners  []*switchsim.Runner

	fam  int
	msgs []switchsim.Message
	res  *switchsim.Result

	dst []int // RouteInto's output in replays
}

func (s *routeSystem) prepare(i int) error {
	s.fam = i % len(routeFamilies)
	rounds := s.traffic[s.fam]
	s.msgs = rounds[(i/len(routeFamilies))%len(rounds)]
	return nil
}

func (s *routeSystem) op() error {
	var err error
	s.res, err = s.runners[s.fam].Run(s.msgs)
	return err
}

// check verifies Lemma 2's delivery guarantee and intact payloads.
func (s *routeSystem) check() (opStats, error) {
	st := opStats{Rounds: 1, Delivered: len(s.res.Delivered)}
	if err := switchsim.CheckGuarantee(s.switches[s.fam], s.msgs, s.res); err != nil {
		return st, fmt.Errorf("%s: %w", routeFamilies[s.fam], err)
	}
	return st, nil
}

// replay times RouteInto on the op's valid vector, the kernel inside
// the Runner.Run the op timed.
func (s *routeSystem) replay(rec *recorder, op, parent int) error {
	if s.dst == nil {
		s.dst = make([]int, routeN)
	}
	sw := s.switches[s.fam]
	var err error
	route := func() { err = sw.RouteInto(s.dst, s.res.Valid) }
	rec.call("core.RouteInto."+routeFamilies[s.fam], op, parent, route)
	if err == nil && op%routeAllocEveryOp == 0 {
		rec.sample("core.RouteInto.allocs", allocsPerCall(routeAllocRuns, route))
	}
	return err
}

func (s *routeSystem) layerMetrics(rec *recorder) map[string]metric {
	ms := map[string]metric{
		"core.route_allocs":   {mean(rec.counts["core.RouteInto.allocs"]), "count"},
		"switchsim.runner_us": {rec.median("switchsim.Runner.Run"), "us"},
	}
	var self []time.Duration
	for _, f := range routeFamilies {
		ms["core.route_us."+f] = metric{rec.median("core.RouteInto." + f), "us"}
		self = append(self, rec.childDiffs("switchsim.Runner.Run", "core.RouteInto."+f)...)
	}
	ms["switchsim.runner_self_us"] = metric{us(quantile(self, 0.5)), "us"}
	return ms
}
