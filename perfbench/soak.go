package main

// soak: the simulation loop. Each run plays scenario-engine storms
// (scenario.DefaultConfig: 4 networks, 8 devices, a 16-node overlay,
// roam storms, flaps, crashes, campaigns, lease churn) to a fixed
// simulated horizon with every invariant checked, one seed after
// another. The horizon is a workload constant: the share of time spent
// in the overlay's reputation sampling grows with it.

import (
	"runtime"
	"slices"
	"time"

	"pvn/internal/scenario"
)

const soakHorizon = 40 * time.Hour

// soakSeed is the scenario seed of a run's k-th scenario.
func soakSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

// soakResult is one scenario's outcome.
type soakResult struct {
	wall time.Duration
	sum  scenario.Summary
	// heapMB is the live heap this scenario's played world holds: the
	// heap with it minus the heap once it is released.
	heapMB float64
}

// simRate is simulated seconds per wall second.
func (r soakResult) simRate() float64 { return soakHorizon.Seconds() / r.wall.Seconds() }

// usPerOp is wall time per composed storm op.
func (r soakResult) usPerOp() float64 { return durUs(r.wall) / float64(max(r.sum.Ops, 1)) }

// soakOne builds scenario k's world, plays it to the horizon and checks
// it: a scenario with invariant violations is a failed operation.
func soakOne(seed uint64, k int, o *outcome) soakResult {
	s := soakSeed(seed, k)
	e := scenario.New(scenario.DefaultConfig(s))
	t0 := time.Now()
	e.Soak(soakHorizon)
	r := soakResult{wall: time.Since(t0), sum: e.Summary()}
	o.attempted++
	if n := len(e.Violations()); n > 0 {
		o.failed++
		o.check(false, "scenario seed %d: %d invariant violations, first %s; repro: go run ./cmd/pvnbench -soak -seed=%d -sim-hours=%g",
			s, n, e.Violations()[0], s, soakHorizon.Hours())
	}
	held := liveHeapMB()
	runtime.KeepAlive(e)
	r.heapMB = held - liveHeapMB()
	return r
}

// soakLoop plays scenarios k = from, from+1, ... until d has passed
// (at least one), calling between after each.
func soakLoop(seed uint64, from int, d time.Duration, o *outcome, between func()) []soakResult {
	var out []soakResult
	deadline := time.Now().Add(d)
	for k := from; len(out) == 0 || time.Now().Before(deadline); k++ {
		out = append(out, soakOne(seed, k, o))
		if between != nil {
			between()
		}
	}
	return out
}

// runSoak: untraced, rate_per_s is simulated seconds per wall second
// and p50_us the wall time per composed op, each the median over the
// run's scenarios at the reference host speed measured right after it.
// setup_s is the median of the world builds; live_heap_mb the mean over
// scenarios of the heap a played world holds.
func runSoak(p params) (*outcome, error) {
	o := newOutcome()
	e, setup, err := setUp(func() (*scenario.Engine, error) {
		return scenario.New(scenario.DefaultConfig(soakSeed(p.seed, 0))), nil
	}, func(e *scenario.Engine) { e.W.Pipe.Stop() })
	if err != nil {
		return nil, err
	}
	e.W.Pipe.Stop()
	o.e2e["setup_s"] = setup
	var rs []soakResult
	if p.trace {
		if rs, err = traceSoak(p, o); err != nil {
			return nil, err
		}
	} else {
		var speeds []hostSpeed
		rs = soakLoop(p.seed, 0, p.seconds, o, func() {
			speeds = append(speeds, calibrate(p.seconds/100))
		})
		// Wall time per op spans a whole scenario, interruptions
		// included, so both figures scale by the throughput speed.
		rates, perOp := make([]float64, len(rs)), make([]float64, len(rs))
		for i, r := range rs {
			rates[i], perOp[i] = r.simRate(), r.usPerOp()*speeds[i].throughput
		}
		o.e2e["rate_per_s"] = atRefRate(rates, speeds)
		o.e2e["p50_us"] = median(perOp)
		o.notef("%s; %d scenarios of %v, raw sim-s per wall-s %.0f..%.0f median %.0f",
			speedSummary(speeds), len(rs), soakHorizon, slices.Min(rates), slices.Max(rates), median(rates))
	}
	// A world's footprint depends on its seed's storms, so the figure
	// is the mean over scenarios; the host does not move it.
	var heap float64
	for _, r := range rs {
		heap += r.heapMB
	}
	o.e2e["live_heap_mb"] = heap / float64(len(rs))
	return o, nil
}
