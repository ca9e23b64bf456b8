package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"pvn/internal/dataplane"
	"pvn/internal/middlebox"
	"pvn/internal/openflow"
)

const (
	// A run builds its world at least minSetupReps times and until
	// setupBudget has passed (at most maxSetupReps); setup_s is the
	// median build time (see setUp).
	minSetupReps = 5
	maxSetupReps = 50
	setupBudget  = 500 * time.Millisecond
	// loopWindow is the closed-loop rate window; a phase reports its
	// median window. Short windows make the median robust to the bursts
	// of interference a shared host adds.
	loopWindow = 50 * time.Millisecond
	// openWindow is the open-loop latency window: each window yields one
	// p50/p99 and the run reports the median window.
	openWindow = 250 * time.Millisecond
	// warmWindows open-loop windows run before any is measured.
	warmWindows = 2
	// maxGenLateUs is the generator lateness beyond which an open-loop
	// window counts as behind schedule (its median packet was submitted
	// this late).
	maxGenLateUs = 1000.0
	// pipeBatch and pipeQueue are the benchmark pipelines' batch size
	// and per-shard ring depth, set explicitly so the metrics derived
	// from them do not depend on the dataplane's defaults.
	pipeBatch = 32
	pipeQueue = 1024
)

func runFwdSmall(p params) (*outcome, error) {
	return runPackets(p, buildFwdSmall)
}

func runSubscriberMix(p params) (*outcome, error) {
	return runPackets(p, buildSubscriberMix)
}

// setUp builds a world repeatedly (see minSetupReps) and returns the
// last one with the median build time in seconds at the reference host
// speed: each build is followed by a calibration slice as long as the
// build (at least setupCal) and scaled by its throughput speed, since
// the host's drift between runs is larger than the setup_s bound. Each
// build starts after a forced collection so the previous world's
// garbage is not billed to it. release, when set, disposes of every
// world but the last.
func setUp[T any](build func() (T, error), release func(T)) (T, float64, error) {
	const setupCal = 5 * time.Millisecond
	var last T
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || (len(times) < maxSetupReps && time.Since(start) < setupBudget) {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		took := time.Since(t0)
		times = append(times, took.Seconds()*calibrate(max(took, setupCal)).throughput)
		if release != nil && len(times) > 1 {
			release(last)
		}
		last = v
	}
	return last, median(times), nil
}

// runPackets runs both packet workloads. Untraced: after a short
// unmeasured warm-up, the inline closed loop (rate_per_s) runs in slices
// between calibration slices, then the sharded open loop runs at the
// workload's fixed offered rate (p50_us). Both are reported at the
// reference host speed: the rate per slice by its throughput speed, the
// open-loop latency by the run's median typical speed.
func runPackets(p params, build func(uint64) (*packetWorld, error)) (*outcome, error) {
	o := newOutcome()
	w, setup, err := setUp(func() (*packetWorld, error) { return build(p.seed) }, nil)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	o.notef("rules=%d flows=%d offered=%.0f pkt/s", w.sw.Table.Len(), len(w.templates), w.rate)
	if p.trace {
		if err := tracePackets(p, w, o); err != nil {
			return nil, err
		}
	} else {
		// 5% warm-up, 35% inline closed loop in rounds with 10% of
		// calibration, 50% open loop.
		warm := p.seconds / 20
		inlineLoop(w, warm, o, nil) // checked, not measured
		var rates []float64
		speeds := calibrated(p.seconds*7/20, p.seconds/10, func(d time.Duration) {
			rates = append(rates, median(inlineLoop(w, d, o, nil)))
		})
		ol := openLoop(w, p.seconds/2, o)
		typical := make([]float64, len(speeds))
		for i, sp := range speeds {
			typical[i] = sp.typical
		}
		o.e2e["rate_per_s"] = atRefRate(rates, speeds)
		o.e2e["p50_us"] = ol.p50 * median(typical)
		o.notef("%s; raw pkt/s median %.0f; open-loop raw p50 %.2f µs",
			speedSummary(speeds), median(rates), ol.p50)
	}
	w.checkTunnels(o)
	o.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(w)
	return o, nil
}

// inlineSpans accumulates the traced inline loop's per-call spans.
type inlineSpans struct {
	process, wrap  time.Duration
	packets, wraps int64
}

// inlineLoop is the synchronous path, pvnd's default serial mode:
// Switch.Process on the caller's goroutine, then tunnel encapsulation
// for tunnel verdicts. Every packet's disposition is checked against
// its template's class. It returns one rate (pkt/s) per window.
func inlineLoop(w *packetWorld, d time.Duration, o *outcome, sp *inlineSpans) []float64 {
	const chunk = 256
	win := newWindow(loopWindow)
	deadline := time.Now().Add(d)
	var i int64
	for time.Now().Before(deadline) {
		for k := 0; k < chunk; k++ {
			t := w.tmpl(i)
			i++
			var t0 time.Time
			if sp != nil {
				t0 = time.Now()
			}
			disp := w.sw.Process(t.frame, 0)
			if sp != nil {
				sp.process += time.Since(t0)
			}
			ok := disp.Verdict == t.class.verdict()
			switch disp.Verdict {
			case openflow.VerdictOutput:
				ok = ok && disp.Port == upstreamPort
			case openflow.VerdictTunnel:
				w.wraps++
				if sp != nil {
					t0 = time.Now()
				}
				_, _, err := w.tunnels.Wrap(disp.TunnelName, disp.Data)
				if sp != nil {
					sp.wrap += time.Since(t0)
					sp.wraps++
				}
				ok = ok && err == nil
			}
			if !ok {
				o.failed++
			}
		}
		o.attempted += chunk
		win.add(chunk)
	}
	if sp != nil {
		sp.packets += i
	}
	return win.rates
}

// classCounts tallies the verdicts packets [from, to) must get.
func (w *packetWorld) classCounts(from, to int64) (outputs, drops, tunnels int64) {
	for i := from; i < to; i++ {
		switch w.tmpl(i).class.verdict() {
		case openflow.VerdictOutput:
			outputs++
		case openflow.VerdictDrop:
			drops++
		case openflow.VerdictTunnel:
			tunnels++
		}
	}
	return
}

// pipeline builds a started sharded pipeline (Block policy, so no packet
// is ever dropped for backpressure) over a copy of the world's rules.
// onDeliver sees every forwarded or tunnelled packet; it must be cheap
// and goroutine-safe. Misdirected packets are counted in bad.
func (w *packetWorld) pipeline(shards int, bad *atomic.Int64, onDeliver func(data []byte)) *dataplane.Pipeline {
	cfg := dataplane.Config{
		Shards:     shards,
		BatchSize:  pipeBatch,
		QueueDepth: pipeQueue,
		Policy:     dataplane.Block,
		OnOutput: func(port uint16, data []byte) {
			if port != upstreamPort {
				bad.Add(1)
			}
			if onDeliver != nil {
				onDeliver(data)
			}
		},
		OnTunnel: func(name string, data []byte) {
			if _, _, err := w.tunnels.Wrap(name, data); err != nil {
				bad.Add(1)
			}
			if onDeliver != nil {
				onDeliver(data)
			}
		},
		OnController: func(uint16, []byte) { bad.Add(1) },
	}
	if w.rt != nil {
		cfg.Chains = middlebox.Synchronized(w.rt)
	}
	p := dataplane.New(cfg)
	for _, e := range w.sw.Table.Entries() {
		ec := *e
		p.Table().Install(&ec, 0)
	}
	p.Start()
	return p
}

// checkPipeline applies the sharded path's oracle after a drained run
// over packets [from, to): verdict totals match the classes, Block
// policy dropped nothing, no chain failed, and every shard satisfies
// Enqueued == Processed + Dropped + QueueDepth.
func (w *packetWorld) checkPipeline(o *outcome, phase string, st dataplane.Stats, from, to int64, bad int64) {
	o.attempted += to - from
	tot := st.Total()
	w.wraps += tot.Tunnels
	wantOut, wantDrop, wantTun := w.classCounts(from, to)
	miss := abs(tot.Outputs-wantOut) + abs(tot.Drops-wantDrop) + abs(tot.Tunnels-wantTun)
	o.failed += bad + miss + tot.Dropped
	o.check(bad == 0, "%s: %d packets misdirected", phase, bad)
	o.check(miss == 0, "%s: verdicts out=%d drop=%d tunnel=%d, want %d/%d/%d",
		phase, tot.Outputs, tot.Drops, tot.Tunnels, wantOut, wantDrop, wantTun)
	o.check(tot.Dropped == 0, "%s: Block policy dropped %d packets", phase, tot.Dropped)
	o.check(tot.ChainErrs == 0 && st.Chain.Panics == 0 && st.Chain.BoxErrors == 0,
		"%s: chain errors %d (panics %d, box errors %d)", phase, tot.ChainErrs, st.Chain.Panics, st.Chain.BoxErrors)
	for i, sh := range st.Shards {
		o.check(sh.Enqueued == sh.Processed+sh.Dropped+int64(sh.QueueDepth),
			"%s: shard %d accounting enqueued=%d processed=%d dropped=%d depth=%d",
			phase, i, sh.Enqueued, sh.Processed, sh.Dropped, sh.QueueDepth)
	}
	o.check(tot.Processed == to-from, "%s: processed %d of %d", phase, tot.Processed, to-from)
}

// checkTunnels reads the tunnel table's own counters: every tunnel
// verdict, inline or sharded, must have been encapsulated exactly once.
func (w *packetWorld) checkTunnels(o *outcome) {
	if w.tunnels == nil {
		return
	}
	var sent int64
	for _, ep := range w.tunnels.Stats().Endpoints {
		sent += ep.Sent
	}
	o.check(sent == w.wraps, "tunnel table sent %d packets, want %d", sent, w.wraps)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// openResult is one open-loop phase's measurement.
type openResult struct {
	p50, p99 float64 // µs, median over windows
	lateP99  float64 // generator lateness p99, µs, median over windows
	stats    dataplane.Stats
	// pipeP50 is the median of the pipeline's own sampled
	// enqueue→processed latencies (Pipeline.LatencyDist), µs.
	pipeP50 float64
}

// openLoopShards is the open loop's pipeline width. The generator needs
// a CPU of its own, or its own lateness, not the pipeline, sets the
// tail: the pipeline gets the remaining GOMAXPROCS-1 shards (at least
// one). The closed loops run the default width, GOMAXPROCS.
func openLoopShards() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// openLoop offers the workload's fixed rate to the sharded pipeline from
// one generator (this goroutine). Each packet carries its index in the
// TCP sequence number; the output hook times it from its due time, so a
// stalled generator or a queue shows as latency.
func openLoop(w *packetWorld, d time.Duration, o *outcome) openResult {
	n := int64(w.rate * d.Seconds())
	period := float64(time.Second) / w.rate
	lat := make([]uint32, n)
	var bad atomic.Int64
	shards := openLoopShards()
	// One more P than the default, so the generator never waits in the
	// Go scheduler behind the worker or a GC mark worker.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1))
	base := time.Now()
	p := w.pipeline(shards, &bad, func(data []byte) {
		idx := int64(getSeq(data))
		if idx >= n {
			bad.Add(1)
			return
		}
		l := time.Since(base) - time.Duration(float64(idx)*period)
		lat[idx] = uint32(min(max(l, 1), math.MaxUint32))
	})

	perWindow := int64(w.rate * openWindow.Seconds())
	// Generator lateness, sampled every lateEvery packets into a
	// preallocated buffer; windows are summarized after the run so the
	// generator never stalls on bookkeeping.
	const lateEvery = 8
	late := make([]float64, 0, n/lateEvery+1)
	var depths []int
	for i := int64(0); i < n; i++ {
		due := time.Duration(float64(i) * period)
		now := time.Since(base)
		for now < due {
			runtime.Gosched()
			now = time.Since(base)
		}
		if i%lateEvery == 0 {
			late = append(late, durUs(now-due))
		}
		t := w.tmpl(i)
		setSeq(t.frame, uint32(i))
		p.Submit(t.frame, 0)
		if (i+1)%perWindow == 0 {
			depths = append(depths, p.Stats().Total().QueueDepth)
		}
	}
	p.Drain()
	res := openResult{stats: p.Stats(), pipeP50: p.LatencyDist().Median()}
	p.Stop()
	w.checkPipeline(o, "open loop", res.stats, 0, n, bad.Load())

	// Per measured window: the generator's p50 and p99 lateness and the
	// delivered packets' p50/p99, each from its due time, so a stall of
	// the generator or the pipeline shows as latency. The run reports
	// the median window. It is invalid, and its packets count as failed,
	// when the load was not offered as scheduled: the generator ran over
	// maxGenLateUs behind in most windows, or Block-policy backpressure
	// held it back, seen as rings at least half full in most windows.
	var lateP50, lateP99, p50s, p99s []float64
	behind, full := 0, 0
	capacity := shards * pipeQueue
	buf := make([]float64, 0, perWindow)
	for k := int64(warmWindows); k < n/perWindow; k++ {
		buf = buf[:0]
		for _, v := range lat[k*perWindow : (k+1)*perWindow] {
			if v != 0 {
				buf = append(buf, float64(v)/1e3)
			}
		}
		ls := late[k*perWindow/lateEvery : (k+1)*perWindow/lateEvery]
		lateP50 = append(lateP50, quantile(ls, 0.5))
		lateP99 = append(lateP99, quantile(ls, 0.99))
		p50s = append(p50s, quantile(buf, 0.5))
		p99s = append(p99s, quantile(buf, 0.99))
		if lateP50[len(lateP50)-1] > maxGenLateUs {
			behind++
		}
		if depths[k] >= capacity/2 {
			full++
		}
	}
	windows := len(p50s)
	res.lateP99 = median(lateP99)
	res.p50, res.p99 = median(p50s), median(p99s)
	if 2*behind > windows || 2*full > windows {
		o.failed += n
		o.check(false, "open loop invalid: %.0f pkt/s was not offered as scheduled; generator over %.0f µs behind in %d of %d windows, rings at least half of %d packets full in %d",
			w.rate, maxGenLateUs, behind, windows, capacity, full)
	}
	o.notef("open loop: %d packets at %.0f pkt/s over %d windows, generator late p50 %.1f µs p99 %.1f µs, %d windows behind, %d with rings half full",
		n, w.rate, windows, median(lateP50), res.lateP99, behind, full)
	return res
}

// closedLoop submits the schedule to a pipeline with the given shard
// count as fast as Block-policy backpressure lets one producer go, and
// returns one rate (pkt/s) per window. With timeSubmits it also times
// Submit calls in groups of 64 and returns ns per Submit per group.
func closedLoop(w *packetWorld, shards int, d time.Duration, o *outcome, timeSubmits bool) (rates, submitNs []float64, st dataplane.Stats) {
	const chunk = 64
	var bad atomic.Int64
	p := w.pipeline(shards, &bad, nil)
	win := newWindow(loopWindow)
	deadline := time.Now().Add(d)
	var i int64
	for time.Now().Before(deadline) {
		t0 := time.Now()
		for k := 0; k < chunk; k++ {
			p.Submit(w.tmpl(i).frame, 0)
			i++
		}
		if timeSubmits {
			submitNs = append(submitNs, float64(time.Since(t0).Nanoseconds())/chunk)
		}
		win.add(chunk)
	}
	p.Drain()
	st = p.Stats()
	p.Stop()
	w.checkPipeline(o, fmt.Sprintf("closed loop shards=%d", p.Shards()), st, 0, i, bad.Load())
	return win.rates, submitNs, st
}
