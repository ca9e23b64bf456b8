package main

// session-churn: the control plane under a resident population. Three
// provider networks each carry 256 resident subscribers (~1500 rules per
// edge switch); one device lifecycle at a time runs against them.

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/discovery"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pvnc"
	"pvn/internal/trace"
)

const (
	churnNetworks   = 3
	residentsPerNet = 256
	// churnPool is how many distinct churn devices take turns; each
	// lifecycle ends in teardown, so identities are reused cleanly.
	churnPool = 64
)

type churnWorld struct {
	now       time.Duration
	nets      []*core.AccessNetwork
	residents [][]string // sorted resident device IDs per network
	devices   []*core.Device
	sources   []string // each device's PVNC source
	frames    [][]byte // each device's first packet: clean HTTP through its chain
	rng       *rand.Rand
	// next counts lifecycles started; it picks the next churn device.
	next int64
}

// networkPrices makes network i charge (i+1)× the base module prices,
// so every Connect sees three distinct offers.
func networkPrices(i int) map[string]int64 {
	return map[string]int64{"pii-detect": int64(100 * (i + 1)), "tracker-block": int64(50 * (i + 1))}
}

func buildChurn(seed uint64) (*churnWorld, error) {
	cw := &churnWorld{rng: rand.New(rand.NewPCG(seed, 0xc4a2))}
	clock := func() time.Duration { return cw.now }
	for i := 0; i < churnNetworks; i++ {
		name := fmt.Sprintf("isp%d", i)
		prov := freeProvider(name)
		prov.Supported = networkPrices(i)
		n, err := core.NewStandardNetwork(core.NetworkConfig{
			Name: name, Provider: prov, Now: clock, MemoryCapBytes: 8 << 30,
			Tariff: billing.Tariff{PerModuleMicro: networkPrices(i), PerMBMicro: 10},
		})
		if err != nil {
			return nil, err
		}
		var ids []string
		for u := 0; u < residentsPerNet; u++ {
			id := fmt.Sprintf("%s-res%d", name, u)
			addr := packet.IPv4Address{10, byte(100 + i), byte(u / 250), byte(1 + u%250)}
			resp := n.Server.HandleDeploy(&discovery.DeployRequest{
				DeviceID: id, PVNCSource: fmt.Sprintf(subscriberCfg, u, u, addr), Payment: 1 << 20,
			})
			if !resp.OK {
				return nil, fmt.Errorf("%s resident %d: %s", name, u, resp.Reason)
			}
			ids = append(ids, id)
		}
		slices.Sort(ids)
		cw.nets = append(cw.nets, n)
		cw.residents = append(cw.residents, ids)
	}

	web := packet.MustParseIPv4("93.184.216.34")
	for d := 0; d < churnPool; d++ {
		addr := packet.IPv4Address{10, 200, byte(d), 5}
		src := fmt.Sprintf(subscriberCfg, 1000+d, 1000+d, addr)
		cfg, err := pvnc.Parse(src)
		if err != nil {
			return nil, err
		}
		cw.sources = append(cw.sources, src)
		cw.devices = append(cw.devices, &core.Device{
			ID: fmt.Sprintf("churn%d", d), Addr: addr, Config: cfg,
			BudgetMicro: 10_000, Strategy: discovery.StrategyReduce,
		})
		frame, err := trace.HTTPRequestPacket(addr, web, uint16(30000+cw.rng.IntN(30000)), "news.example", "/", "")
		if err != nil {
			return nil, err
		}
		cw.frames = append(cw.frames, frame)
	}
	// Boot every resident box before the first lifecycle.
	cw.now = time.Hour
	return cw, nil
}

// lifecycleSpans are the traced run's per-call timings, µs.
type lifecycleSpans struct {
	connect, firstPkt, renew, roam, teardown []float64
}

// lifecycle runs one device through connect → first packet → renew →
// make-before-break roam → teardown. setup is Connect to the first
// packet forwarded by the deployed chain; roam is the whole RoamWith.
// Any step that does not end as it must returns an error.
func (cw *churnWorld) lifecycle(dev *core.Device, frame []byte, sp *lifecycleSpans) (setup, roam time.Duration, err error) {
	t0 := time.Now()
	s, err := core.Connect(dev, cw.nets)
	tConn := time.Now()
	if err != nil {
		return 0, 0, fmt.Errorf("connect: %w", err)
	}
	if s.Mode != core.ModeInNetwork {
		return 0, 0, fmt.Errorf("connect ended %s", s.Mode)
	}
	cw.now = max(cw.now, s.ReadyAt())
	tPkt := time.Now()
	d, err := s.Process(frame, 0)
	t1 := time.Now()
	if err != nil || d.Verdict != openflow.VerdictOutput {
		_, _ = s.Teardown()
		return 0, 0, fmt.Errorf("first packet: verdict %v, err %v", d.Verdict, err)
	}
	setup = t1.Sub(t0)

	tRenew := time.Now()
	_, ok := s.Network.Server.Renew(dev.ID)
	tRenewEnd := time.Now()
	if !ok {
		_, _ = s.Teardown()
		return 0, 0, fmt.Errorf("renew refused")
	}

	var target *core.AccessNetwork
	for target == nil || target == s.Network {
		target = cw.nets[cw.rng.IntN(len(cw.nets))]
	}
	t2 := time.Now()
	next, inv, err := core.RoamWith(s, []*core.AccessNetwork{target}, core.RoamOptions{})
	roam = time.Since(t2)
	if err != nil || inv == nil || next.Mode != core.ModeInNetwork || next.Network != target {
		_, _ = s.Teardown()
		_, _ = next.Teardown()
		return 0, 0, fmt.Errorf("roam to %s: mode %s, invoice %v, err %v", target.Name, next.Mode, inv != nil, err)
	}
	cw.now = max(cw.now, next.ReadyAt())

	t3 := time.Now()
	inv, err = next.Teardown()
	tEnd := time.Now()
	if err != nil || inv == nil {
		return 0, 0, fmt.Errorf("teardown: invoice %v, err %v", inv != nil, err)
	}
	if sp != nil {
		sp.connect = append(sp.connect, durUs(tConn.Sub(t0)))
		sp.firstPkt = append(sp.firstPkt, durUs(t1.Sub(tPkt)))
		sp.renew = append(sp.renew, durUs(tRenewEnd.Sub(tRenew)))
		sp.roam = append(sp.roam, durUs(roam))
		sp.teardown = append(sp.teardown, durUs(tEnd.Sub(t3)))
	}
	return setup, roam, nil
}

// checkResidents is the no-leak oracle: after the churn every server
// hosts exactly its residents.
func (cw *churnWorld) checkResidents(o *outcome) {
	for i, n := range cw.nets {
		got := n.Server.DeviceIDs()
		slices.Sort(got)
		o.check(slices.Equal(got, cw.residents[i]), "%s hosts %d devices after churn, want its %d residents",
			n.Name, len(got), len(cw.residents[i]))
	}
}

// churnResult is one closed-loop churn phase.
type churnResult struct {
	rates       []float64 // lifecycles/s per window
	setup, roam []float64 // µs per lifecycle
	// cuts splits setup/roam into latency windows: window k holds
	// samples [cuts[k-1], cuts[k]).
	cuts []int
	ops  int64
}

// merge appends phase q to r, dropping r's samples after its last
// latency window so no window spans two phases.
func (r *churnResult) merge(q churnResult) {
	keep := 0
	if len(r.cuts) > 0 {
		keep = r.cuts[len(r.cuts)-1]
	}
	r.setup, r.roam = r.setup[:keep], r.roam[:keep]
	for _, c := range q.cuts {
		r.cuts = append(r.cuts, keep+c)
	}
	r.setup = append(r.setup, q.setup...)
	r.roam = append(r.roam, q.roam...)
	r.rates = append(r.rates, q.rates...)
	r.ops += q.ops
}

// latencyWindow is the span of one session-latency window.
const latencyWindow = 250 * time.Millisecond

// churnLoop runs lifecycles back to back on this goroutine for d.
func (cw *churnWorld) churnLoop(d time.Duration, o *outcome, sp *lifecycleSpans) churnResult {
	var r churnResult
	win, latWin := newWindow(loopWindow), newWindow(latencyWindow)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		k := int(cw.next % churnPool)
		cw.next++
		r.ops++
		o.attempted++
		setup, roam, err := cw.lifecycle(cw.devices[k], cw.frames[k], sp)
		if err != nil {
			o.failed++
			o.check(false, "lifecycle %d (%s): %v", cw.next, cw.devices[k].ID, err)
			continue
		}
		r.setup = append(r.setup, durUs(setup))
		r.roam = append(r.roam, durUs(roam))
		win.add(1)
		if latWin.add(1) {
			r.cuts = append(r.cuts, len(r.setup))
		}
	}
	r.rates = win.rates
	return r
}

// runSessionChurn: untraced, rate_per_s is lifecycles per second and
// p50_us the session set-up latency (Connect → first packet), both at
// the reference host speed.
func runSessionChurn(p params) (*outcome, error) {
	o := newOutcome()
	cw, setup, err := setUp(func() (*churnWorld, error) { return buildChurn(p.seed) }, nil)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	if p.trace {
		if err := traceChurn(p, cw, o); err != nil {
			return nil, err
		}
	} else {
		cw.churnLoop(p.seconds/20, o, nil) // warm-up: checked, not measured
		var r churnResult
		var rates, p50s []float64
		speeds := calibrated(p.seconds*17/20, p.seconds/10, func(d time.Duration) {
			q := cw.churnLoop(d, o, nil)
			rates = append(rates, median(q.rates))
			p50s = append(p50s, median(windowQuantiles(q.setup, q.cuts, 0.5)))
			r.merge(q)
		})
		o.e2e["rate_per_s"] = atRefRate(rates, speeds)
		o.e2e["p50_us"] = atRefTime(p50s, speeds)
		o.notef("%s; raw lifecycles/s %.0f, raw set-up p50 %.1f µs",
			speedSummary(speeds), median(rates), median(p50s))
		o.notef("%d lifecycles in %d latency windows, set-up p99 %.1f µs, roam p50 %.1f µs p99 %.1f µs",
			r.ops, len(r.cuts), median(windowQuantiles(r.setup, r.cuts, 0.99)),
			median(windowQuantiles(r.roam, r.cuts, 0.5)), median(windowQuantiles(r.roam, r.cuts, 0.99)))
	}
	cw.checkResidents(o)
	o.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(cw)
	return o, nil
}
