package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"

	"concentrators/internal/chaos"
	"concentrators/internal/core"
	"concentrators/internal/journal"
	"concentrators/internal/pool"
	"concentrators/internal/switchsim"
)

// chaos-mixed: repeated chaos.Run over three ColumnsortSwitchBeta(256,
// 128, ¾) replicas for 120 rounds, each op on a fresh seed, with every
// plane that composes with the chaos acceptance configuration: primary
// kills, wire-corruption bursts (BER ≤ 1e-2), controller crash-restarts
// from the per-round checkpoint journal, stall bursts under a deadline
// SLO with hedged dispatch, and load surges that admission sheds.
//
// Chip faults are left out: with them, some chaos seeds end in
// "contract violated after exhausting replicas" (see README.md), and
// every op of a benchmark workload must be one the program serves
// correctly. The faulted core path and health.Scan are measured by
// session-faults.
const (
	chaosN, chaosM  = 256, 128
	chaosBeta       = 0.75
	chaosReplicas   = 3
	chaosRounds     = 120
	chaosLoad       = 0.7
	chaosPayload    = 4
	chaosDeadline   = 8
	chaosBatches    = 64 // pre-generated rounds for the direct pool
	chaosWarmRounds = 60 // direct-pool rounds before the first checkpoint is timed
)

func chaosSwitch() (core.FaultInjectable, error) {
	return core.NewColumnsortSwitchBeta(chaosN, chaosM, chaosBeta)
}

// chaosPoolConfig is the acceptance pool configuration. chaos.Run adds
// the Deadline and, because the schedule has stalls, hedged dispatch.
func chaosPoolConfig() pool.Config {
	return pool.Config{TripThreshold: 1, ProbeAfter: 1}
}

// directPoolConfig is the pool configuration chaos.Run serves under.
func directPoolConfig() pool.Config {
	c := chaosPoolConfig()
	c.Deadline = chaosDeadline
	c.HedgeQuantile, c.HedgeBudget = 0.9, 0.5
	return c
}

func chaosConfig(seed int64) chaos.Config {
	return chaos.Config{
		Replicas:    chaosReplicas,
		Rounds:      chaosRounds,
		Load:        chaosLoad,
		PayloadBits: chaosPayload,
		Seed:        seed,
		Kills:       2,
		Corruptions: 2,
		MaxBER:      1e-2,
		Crashes:     2,
		Stalls:      2,
		Surges:      2,
		Deadline:    chaosDeadline,
		Pool:        chaosPoolConfig(),
	}
}

func chaosInputs(seed int64) (func() (system, error), error) {
	return func() (system, error) {
		geom, err := chaosSwitch()
		if err != nil {
			return nil, err
		}
		return &chaosSystem{seed: seed, geom: geom}, nil
	}, nil
}

type chaosSystem struct {
	seed int64
	geom core.FaultInjectable // the replicas' geometry, for GenerateSchedule

	cfg    chaos.Config
	events []chaos.Event
	rep    *chaos.Report

	// Report totals over every checked run.
	runs, failovers, trips, scans, crashes, tornTails, corrupted, hedges, regressions int
	offered, shed                                                                     int

	// Replays drive a pool of the same shape and load directly, and
	// checkpoint it to a journal as chaos.Run does every round.
	direct  *pool.Pool
	batches [][]switchsim.Message
	round   int
	store   *journal.MemStore
	w       *journal.Writer
}

// prepare draws the op's chaos schedule from its seed.
func (s *chaosSystem) prepare(i int) error {
	s.cfg = chaosConfig(opSeed(s.seed, i))
	var err error
	s.events, err = chaos.GenerateSchedule(s.cfg.Seed, s.geom, s.cfg)
	return err
}

func (s *chaosSystem) op() error {
	var err error
	s.rep, err = chaos.Run(chaosSwitch, s.events, s.cfg)
	return err
}

// check verifies the run kept the live replica set's degraded contract
// every round and that the crash ledger balances: Stats.Delivered +
// Crash.DeliveredLost == Crash.TrueDelivered.
func (s *chaosSystem) check() (opStats, error) {
	r := s.rep
	s.runs++
	s.failovers += r.Stats.Failovers
	s.trips += r.Stats.Trips
	s.scans += r.Stats.Scans
	s.crashes += r.Crash.Crashes
	s.tornTails += r.Crash.TornTails
	s.corrupted += r.Stats.CorruptedDeliveries
	s.hedges += r.Stats.Hedges
	s.regressions += len(r.Regressions)
	s.offered += r.Stats.Offered
	s.shed += r.Stats.Shed
	st := opStats{
		Rounds:       len(r.Rounds),
		Delivered:    r.Stats.Delivered,
		Shed:         r.Stats.Shed,
		Failovers:    r.Stats.Failovers,
		Scans:        r.Stats.Scans,
		Regressions:  len(r.Regressions),
		JournalBytes: r.Crash.JournalBytes,
	}
	switch {
	case len(r.Regressions) > 0:
		return st, fmt.Errorf("chaos seed %d: %d regressions, first: %s", s.cfg.Seed, len(r.Regressions), r.Regressions[0])
	case r.Stats.Delivered+r.Crash.DeliveredLost != r.Crash.TrueDelivered:
		return st, fmt.Errorf("chaos seed %d: delivered %d + lost %d != true %d",
			s.cfg.Seed, r.Stats.Delivered, r.Crash.DeliveredLost, r.Crash.TrueDelivered)
	case len(r.Rounds) != s.cfg.Rounds:
		return st, fmt.Errorf("chaos seed %d: %d rounds of %d", s.cfg.Seed, len(r.Rounds), s.cfg.Rounds)
	}
	return st, nil
}

// startDirect builds the directly driven pool and runs it partway into
// a run before any replay times it.
func (s *chaosSystem) startDirect() error {
	sws := make([]core.FaultInjectable, chaosReplicas)
	for i := range sws {
		sw, err := chaosSwitch()
		if err != nil {
			return err
		}
		sws[i] = sw
	}
	p, err := pool.New(directPoolConfig(), sws...)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.seed))
	s.batches = make([][]switchsim.Message, chaosBatches)
	for i := range s.batches {
		s.batches[i] = switchsim.RandomMessages(rng, chaosN, chaosLoad, chaosPayload)
	}
	s.direct = p
	for ; s.round < chaosWarmRounds; s.round++ {
		if _, err := p.Run(s.batches[s.round%chaosBatches]); err != nil {
			return err
		}
	}
	return nil
}

// replay times one Pool.Run of the directly driven pool and the
// checkpoint chaos.Run appends after every round: Pool.Snapshot, gob
// encoding and journal.Writer.Append.
func (s *chaosSystem) replay(rec *recorder, op, parent int) error {
	if s.direct == nil {
		if err := s.startDirect(); err != nil {
			return err
		}
	}
	var err error
	rec.call("pool.Pool.Run", op, parent, func() { _, err = s.direct.Run(s.batches[s.round%chaosBatches]) })
	if err != nil {
		return err
	}
	s.round++
	if s.round%chaosRounds == 0 || s.w == nil {
		// A run's journal holds one checkpoint per round.
		s.store = journal.NewMemStore()
		s.w = journal.NewWriter(s.store)
	}
	cp := rec.begin("journal.checkpoint", op, parent)
	var snap *pool.Checkpoint
	rec.call("pool.Snapshot", op, cp, func() { snap = s.direct.Snapshot() })
	var buf bytes.Buffer
	rec.call("gob.Encode", op, cp, func() { err = gob.NewEncoder(&buf).Encode(snap) })
	if err != nil {
		return err
	}
	rec.call("journal.Writer.Append", op, cp, func() { s.w.Append(journal.KindSnapshot, buf.Bytes()) })
	rec.end(cp)
	rec.sample("journal.checkpoint_bytes", float64(buf.Len()+journal.FrameOverhead))
	return nil
}

func (s *chaosSystem) layerMetrics(rec *recorder) map[string]metric {
	runs := float64(max(1, s.runs))
	round := rec.median("pool.Pool.Run")
	overhead := 0.0
	if round > 0 {
		overhead = rec.median("chaos.Run") / chaosRounds / round
	}
	return map[string]metric{
		"journal.checkpoint_us":    {rec.median("journal.checkpoint"), "us"},
		"journal.checkpoint_kb":    {mean(rec.counts["journal.checkpoint_bytes"]) / 1024, "KiB"},
		"chaos.pool_round_us":      {round, "us"},
		"chaos.overhead_x":         {overhead, "x"},
		"chaos.failovers":          {float64(s.failovers) / runs, "count/run"},
		"chaos.trips":              {float64(s.trips) / runs, "count/run"},
		"chaos.scans":              {float64(s.scans) / runs, "count/run"},
		"chaos.crashes":            {float64(s.crashes) / runs, "count/run"},
		"chaos.torn_tails":         {float64(s.tornTails) / runs, "count/run"},
		"chaos.corrupted_stripped": {float64(s.corrupted) / runs, "count/run"},
		"chaos.hedges":             {float64(s.hedges) / runs, "count/run"},
		"chaos.shed_share":         {float64(s.shed) / float64(max(1, s.offered)), "ratio"},
		"chaos.regressions":        {float64(s.regressions) / runs, "count/run"},
	}
}
