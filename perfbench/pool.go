package main

import (
	"fmt"
	"math/rand"

	"concentrators/internal/core"
	"concentrators/internal/pool"
	"concentrators/internal/switchsim"
)

// pool-serve: a healthy pool of four ColumnsortSwitchBeta(4096, 2048,
// ¾) replicas with the default (sequential) pool.Config, serving
// pre-generated rounds at load 0.2–0.5, so some rounds exceed the
// ⌊α′m′⌋ admission threshold and are partly shed.
const (
	poolN, poolM    = 4096, 2048
	poolBeta        = 0.75
	poolReplicas    = 4
	poolBatches     = 64 // pre-generated rounds
	poolPayloadBits = 8
	poolMinLoad     = 0.2
	poolMaxLoad     = 0.5
)

func poolInputs(seed int64) (func() (system, error), error) {
	rng := rand.New(rand.NewSource(seed))
	var batches [][]switchsim.Message
	for _, load := range stratifiedLoads(rng, poolBatches, poolMinLoad, poolMaxLoad) {
		batches = append(batches, switchsim.RandomMessages(rng, poolN, load, poolPayloadBits))
	}
	return func() (system, error) {
		sws := make([]core.FaultInjectable, poolReplicas)
		for i := range sws {
			sw, err := core.NewColumnsortSwitchBeta(poolN, poolM, poolBeta)
			if err != nil {
				return nil, err
			}
			sws[i] = sw
		}
		p, err := pool.New(pool.Config{}, sws...)
		if err != nil {
			return nil, err
		}
		return &poolSystem{batches: batches, p: p, payload: make([][]byte, poolN)}, nil
	}, nil
}

type poolSystem struct {
	batches [][]switchsim.Message
	p       *pool.Pool

	msgs []switchsim.Message
	rr   *pool.RoundResult
	last pool.Stats // the pool's ledger before the op

	payload [][]byte // sent payload by input wire, for the op in check

	// Ledger totals over every checked op.
	rounds, offered, admitted, shed, failovers, violations int

	// Replays route the admitted batch through a healthy switch of the
	// replicas' shape, outside the pool.
	ref    *core.ColumnsortSwitch
	runner *switchsim.Runner
}

func (s *poolSystem) prepare(i int) error {
	s.msgs = s.batches[i%len(s.batches)]
	return nil
}

func (s *poolSystem) op() error {
	var err error
	s.rr, err = s.p.Run(s.msgs)
	return err
}

// check verifies the round was served within contract, that the
// admission ledger balances (Offered = Admitted + Shed, Delivered ≤
// Admitted), and that every delivered payload arrived intact.
func (s *poolSystem) check() (opStats, error) {
	now := s.p.Stats()
	d := pool.Stats{
		Offered:    now.Offered - s.last.Offered,
		Admitted:   now.Admitted - s.last.Admitted,
		Shed:       now.Shed - s.last.Shed,
		Delivered:  now.Delivered - s.last.Delivered,
		Failovers:  now.Failovers - s.last.Failovers,
		Violations: now.Violations - s.last.Violations,
		Scans:      now.Scans - s.last.Scans,
	}
	s.last = now
	s.rounds++
	s.offered += d.Offered
	s.admitted += d.Admitted
	s.shed += d.Shed
	s.failovers += d.Failovers
	s.violations += d.Violations
	st := opStats{Rounds: 1, Delivered: d.Delivered, Shed: d.Shed, Failovers: d.Failovers, Scans: d.Scans}
	switch {
	case s.rr.Violated:
		return st, fmt.Errorf("pool round %d violated its contract", s.rr.Round)
	case d.Offered != len(s.msgs):
		return st, fmt.Errorf("pool round %d: offered %d of %d messages", s.rr.Round, d.Offered, len(s.msgs))
	case d.Offered != d.Admitted+d.Shed:
		return st, fmt.Errorf("pool round %d: offered %d != admitted %d + shed %d", s.rr.Round, d.Offered, d.Admitted, d.Shed)
	case d.Delivered > d.Admitted:
		return st, fmt.Errorf("pool round %d: delivered %d > admitted %d", s.rr.Round, d.Delivered, d.Admitted)
	case s.rr.Result == nil:
		return st, fmt.Errorf("pool round %d: no replica served", s.rr.Round)
	}
	return st, intactPayloads(s.payload, s.msgs, s.rr.Result.Delivered)
}

// intactPayloads checks every delivery carries the payload sent on its
// input wire. byInput is scratch of one slot per input wire.
func intactPayloads(byInput [][]byte, msgs []switchsim.Message, delivered []switchsim.Delivery) error {
	clear(byInput)
	for _, m := range msgs {
		byInput[m.Input] = m.Payload
	}
	for _, dl := range delivered {
		want := byInput[dl.Input]
		if want == nil || len(dl.Payload) != len(want) {
			return fmt.Errorf("input %d delivered %d bits, sent %d", dl.Input, len(dl.Payload), len(want))
		}
		for c := range want {
			if dl.Payload[c] != want[c]&1 {
				return fmt.Errorf("input %d corrupted at bit %d", dl.Input, c)
			}
		}
	}
	return nil
}

// replay routes the op's admitted batch, rebuilt from the served
// round's valid vector, through the allocating switchsim.Run the pool
// calls, checks it with CheckGuarantee as the pool does, and routes it
// through a Runner as the zero-alloc reference.
func (s *poolSystem) replay(rec *recorder, op, parent int) error {
	if s.ref == nil {
		sw, err := core.NewColumnsortSwitchBeta(poolN, poolM, poolBeta)
		if err != nil {
			return err
		}
		s.ref, s.runner = sw, switchsim.NewRunner(sw)
	}
	valid := s.rr.Result.Valid
	admitted := make([]switchsim.Message, 0, valid.Count())
	for _, m := range s.msgs {
		if valid.Get(m.Input) {
			admitted = append(admitted, m)
		}
	}
	var res *switchsim.Result
	var err error
	rec.call("switchsim.Run", op, parent, func() { res, err = switchsim.Run(s.ref, admitted) })
	if err != nil {
		return err
	}
	rec.call("switchsim.CheckGuarantee", op, parent, func() { err = switchsim.CheckGuarantee(s.ref, admitted, res) })
	if err != nil {
		return err
	}
	rec.call("switchsim.Runner.Run", op, parent, func() { _, err = s.runner.Run(admitted) })
	return err
}

func (s *poolSystem) layerMetrics(rec *recorder) map[string]metric {
	round := rec.median("pool.Pool.Run")
	run := rec.median("switchsim.Run")
	chk := rec.median("switchsim.CheckGuarantee")
	runner := rec.median("switchsim.Runner.Run")
	overhead := 0.0
	if runner > 0 {
		overhead = round / runner
	}
	rounds := float64(max(1, s.rounds))
	return map[string]metric{
		"pool.round_us":         {round, "us"},
		"switchsim.run_us":      {run, "us"},
		"switchsim.check_us":    {chk, "us"},
		"pool.bookkeeping_us":   {round - run - chk, "us"},
		"pool.overhead_x":       {overhead, "x"},
		"pool.allocs_per_round": {mean(rec.counts[opAllocs]), "count"},
		"pool.admit_share":      {float64(s.admitted) / float64(max(1, s.offered)), "ratio"},
		"pool.shed_per_round":   {float64(s.shed) / rounds, "count/round"},
		"pool.failovers":        {float64(s.failovers) / rounds, "count/round"},
		"pool.violations":       {float64(s.violations) / rounds, "count/round"},
	}
}
