package main

import (
	"fmt"
	"math/rand"
	"sort"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
)

// session-faults: seeded fault-aware sessions at n = 1024, alternating
// revsort and columnsort (β = ¾): 60 rounds under the Resend policy at
// load 0.3, an MTBF fault schedule of at most three chip faults, a BIST
// scan every ten rounds and on every contract violation. The workload
// where the faulted tracker path and health.Scan do most of the work.
const (
	sessN, sessM    = 1024, 512
	sessBeta        = 0.75
	sessRounds      = 60
	sessLoad        = 0.3
	sessPayloadBits = 16
	sessAckDelay    = 2
	sessMTBF        = 25.0
	sessMaxFaults   = 3
	sessScanEvery   = 10
)

// sessKinds are the switch designs session-faults alternates between.
var sessKinds = []string{"revsort", "columnsort"}

func sessSwitch(kind int) (core.FaultInjectable, error) {
	if kind == 0 {
		return core.NewRevsortSwitch(sessN, sessM)
	}
	return core.NewColumnsortSwitchBeta(sessN, sessM, sessBeta)
}

// opSeed derives op i's seed from the workload seed.
func opSeed(seed int64, i int) int64 {
	return int64(seedrand.Mix64(seedrand.Mix64(uint64(seed))+uint64(i)) >> 1)
}

func sessionInputs(seed int64) (func() (system, error), error) {
	return func() (system, error) {
		s := &sessionSystem{seed: seed}
		for k := range sessKinds {
			sw, err := sessSwitch(k)
			if err != nil {
				return nil, err
			}
			s.sws = append(s.sws, sw)
		}
		return s, nil
	}, nil
}

type sessionSystem struct {
	seed int64
	sws  []core.FaultInjectable

	k     int // index of the op's switch in sws
	cfg   health.FaultSessionConfig
	stats *health.FaultSessionStats

	// Totals over every checked session.
	sessions, scans, scanRoutes, detections, lostAfter int

	// Replays route through fault-free twins of sws.
	twins []core.RouterInto
	dst   []int
}

// prepare clears the op's switch of the previous session's faults and
// draws the session's fault schedule.
func (s *sessionSystem) prepare(i int) error {
	s.k = i % len(s.sws)
	sw := s.sws[s.k]
	if err := sw.SetFaultPlane(core.NewFaultPlane()); err != nil {
		return err
	}
	seed := opSeed(s.seed, i)
	s.cfg = health.FaultSessionConfig{
		SessionConfig: switchsim.SessionConfig{
			Policy:      switchsim.Resend,
			Load:        sessLoad,
			Rounds:      sessRounds,
			PayloadBits: sessPayloadBits,
			Seed:        seed,
			AckDelay:    sessAckDelay,
		},
		Schedule:        health.GenerateFaultSchedule(seed, sw, sessMTBF, sessRounds, sessMaxFaults),
		ScanEvery:       sessScanEvery,
		ScanOnViolation: true,
	}
	return nil
}

func (s *sessionSystem) op() error {
	var err error
	s.stats, err = health.RunFaultAwareSession(s.sws[s.k], s.cfg)
	return err
}

// check verifies the session ledger's conservation law and that no
// message was lost once every live fault was detected.
//
// RunFaultAwareSession does not book FinalBacklog, so the law's closing
// term is what remains after the booked terms; it cannot be negative
// and cannot exceed the session's peak backlog.
func (s *sessionSystem) check() (opStats, error) {
	st := s.stats
	s.sessions++
	s.scans += st.Scans
	s.scanRoutes += st.ScanRoutes
	s.detections += st.FaultsDetected
	s.lostAfter += st.LostAfterDetection
	out := opStats{Rounds: s.cfg.Rounds, Delivered: st.Delivered, Scans: st.Scans, Detections: st.FaultsDetected}

	booked := st.Delivered + st.Dropped + st.CorruptedDropped + st.DeadlineMissed + st.Shed +
		st.Fenced + st.Forged + st.Duplicated + st.FinalBacklog
	perRound, perLatency := 0, 0
	for _, d := range st.DeliveredPerRound {
		perRound += d
	}
	for _, d := range st.LatencyHistogram {
		perLatency += d
	}
	name := sessKinds[s.k]
	switch waiting := st.Offered - booked; {
	case waiting < 0 || waiting > st.MaxBacklog:
		return out, fmt.Errorf("%s session %d: conservation: offered %d, booked %d, peak backlog %d",
			name, s.cfg.Seed, st.Offered, booked, st.MaxBacklog)
	case perRound != st.Delivered || perLatency != st.Delivered:
		return out, fmt.Errorf("%s session %d: delivered %d, but %d by round and %d by latency",
			name, s.cfg.Seed, st.Delivered, perRound, perLatency)
	case st.LostAfterDetection != 0:
		return out, fmt.Errorf("%s session %d: %d messages lost after detection", name, s.cfg.Seed, st.LostAfterDetection)
	case st.FaultsInjected != len(s.cfg.Schedule):
		return out, fmt.Errorf("%s session %d: %d faults injected of %d scheduled",
			name, s.cfg.Seed, st.FaultsInjected, len(s.cfg.Schedule))
	}
	return out, nil
}

// replay times, on a load-0.3 valid vector drawn from the op's seed:
// Route of the op's switch carrying the session's faults (the tracker
// path) next to RouteInto of a fault-free twin, a BIST Scan of the
// faulted switch, and Route of the DegradedSwitch built from the faults
// the session localized.
func (s *sessionSystem) replay(rec *recorder, op, parent int) error {
	if s.twins == nil {
		for k := range sessKinds {
			sw, err := sessSwitch(k)
			if err != nil {
				return err
			}
			s.twins = append(s.twins, sw.(core.RouterInto))
		}
		s.dst = make([]int, sessN)
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	valid := bitvec.New(sessN)
	for i := 0; i < sessN; i++ {
		valid.Set(i, rng.Float64() < sessLoad)
	}
	sw := s.sws[s.k]
	var err error
	if sw.ActiveFaultPlane().Len() > 0 {
		rec.call("core.Route.faulted", op, parent, func() { _, err = sw.Route(valid) })
		if err != nil {
			return err
		}
		rec.call("core.RouteInto.healthy", op, parent, func() { err = s.twins[s.k].RouteInto(s.dst, valid) })
		if err != nil {
			return err
		}
	}
	rec.call("health.Scan", op, parent, func() { _, err = health.Scan(sw) })
	if err != nil || len(s.stats.Detections) == 0 {
		return err
	}
	faults := make([]health.LocalizedFault, 0, len(s.stats.Detections))
	for _, d := range s.stats.Detections {
		faults = append(faults, d.Fault)
	}
	sort.Slice(faults, func(i, j int) bool {
		if faults[i].Stage != faults[j].Stage {
			return faults[i].Stage < faults[j].Stage
		}
		return faults[i].Chip < faults[j].Chip
	})
	d, err := health.NewDegradedSwitch(sw, faults)
	if err != nil {
		return err
	}
	rec.call("health.DegradedSwitch.Route", op, parent, func() { _, err = d.Route(valid) })
	return err
}

func (s *sessionSystem) layerMetrics(rec *recorder) map[string]metric {
	n := float64(max(1, s.sessions))
	return map[string]metric{
		"core.faulted_route_us":          {rec.median("core.Route.faulted"), "us"},
		"core.faulted_over_healthy_x":    {medianOf(rec.childRatios("core.Route.faulted", "core.RouteInto.healthy")), "x"},
		"health.scan_us":                 {rec.median("health.Scan"), "us"},
		"health.degraded_route_us":       {rec.median("health.DegradedSwitch.Route"), "us"},
		"health.scans_per_session":       {float64(s.scans) / n, "count/session"},
		"health.scan_routes_per_session": {float64(s.scanRoutes) / n, "count/session"},
		"health.detections":              {float64(s.detections) / n, "count/session"},
		"health.lost_after_detection":    {float64(s.lostAfter) / n, "count/session"},
	}
}
