package main

// Traced runs. Each times the benchmark's own calls into the layers'
// public functions and reads the counters the layers publish
// (Pipeline.Stats, SupervisorStats, tunnel.Stats, scenario.Summary,
// runtime/metrics). Where a layer works inside another's call and
// cannot be called alone (the pipeline workers' rule lookup, the
// overlay inside the scenario engine) it folds a CPU profile onto the
// repo's functions. Every traced run also repeats part of its untraced
// measurement, so trace.overhead_pct is the cost of the tracing itself.

import (
	"fmt"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pvnc"
)

// layerMoves names, for every per-layer metric, the end-to-end metric
// and workload it should move. It is also the catalog of per-layer
// metrics the program produces (BENCHMARK.json must list the same).
var layerMoves = map[string]string{
	"packet.decode_ns":           "rate_per_s on fwd-small and subscriber-mix (HTTP parse)",
	"openflow.process_ns":        "rate_per_s on fwd-small and subscriber-mix (span around Switch.Process)",
	"openflow.expire_ns":         "rate_per_s on subscriber-mix (full-table scan per packet); little on fwd-small",
	"openflow.lookup_ns":         "rate_per_s on subscriber-mix (linear scan); little on fwd-small",
	"openflow.allocs_per_pkt":    "rate_per_s on both packet workloads; gc.cpu_share",
	"openflow.rules":             "the table size behind expire_ns and lookup_ns",
	"openflow.install_us":        "p50_us and rate_per_s on session-churn (FlowTable.Install of one deployment's rules into a resident-size table); zero on the packet workloads",
	"dataplane.sharded_pps":      "p50_us on both packet workloads (closed-loop capacity at the default shard count)",
	"dataplane.submit_ns":        "dataplane.sharded_pps on fwd-small",
	"dataplane.batch_fill":       "dataplane.sharded_pps on fwd-small",
	"dataplane.shard_speedup":    "dataplane.sharded_pps on fwd-small (default shards / one shard, same run)",
	"dataplane.service_ns":       "p50_us on both packet workloads",
	"dataplane.queue_wait_us":    "p50_us on both packet workloads",
	"dataplane.gen_late_p99_us":  "tail.p99_us on both packet workloads (generator lateness, not the system)",
	"dataplane.lookup_ns":        "dataplane.sharded_pps on subscriber-mix (profile: ShardedTable lookups per packet)",
	"dataplane.cache_hit_ratio":  "dataplane.sharded_pps on subscriber-mix",
	"dataplane.allocs_per_pkt":   "dataplane.sharded_pps on subscriber-mix; gc.cpu_share",
	"dataplane.drops":            "must be 0 (Block policy)",
	"middlebox.chain_ns":         "rate_per_s and p50_us on subscriber-mix; zero on fwd-small",
	"middlebox.chain_errs":       "must be 0",
	"middlebox.terminate_us":     "rate_per_s on session-churn (Runtime.Terminate of one deployment's boxes)",
	"tunnel.wrap_ns":             "rate_per_s on subscriber-mix; zero on fwd-small",
	"discovery.negotiate_us":     "p50_us on session-churn (DM, offers from every network, BestOffer, deploy request)",
	"pvnc.parse_reduce_us":       "p50_us on session-churn",
	"pvnc.compile_us":            "p50_us on session-churn",
	"deployserver.deploy_us":     "p50_us and rate_per_s on session-churn (Server.HandleDeploy against a resident network)",
	"deployserver.renew_us":      "rate_per_s on session-churn (span around Server.Renew)",
	"deployserver.teardown_us":   "rate_per_s on session-churn (Server.Teardown)",
	"core.connect_us":            "p50_us on session-churn (span around core.Connect)",
	"core.first_pkt_us":          "p50_us on session-churn (span around the first Session.Process)",
	"core.roam_us":               "rate_per_s on session-churn (span around core.RoamWith)",
	"core.teardown_us":           "rate_per_s on session-churn (span around Session.Teardown)",
	"overlay.cpu_share":          "rate_per_s and p50_us on soak (profile share of overlay frames); near zero elsewhere",
	"overlay.codec_cpu_share":    "rate_per_s on soak (encoding/json under the overlay)",
	"overlay.repstore_cpu_share": "rate_per_s on soak (RepStore.Sample; grows with the horizon)",
	"overlay.verify_cpu_share":   "rate_per_s on soak (ed25519.Verify under the overlay)",
	"scenario.ops":               "none: soak work count, repeats exactly per seed (first scenario of the run)",
	"scenario.sent":              "none: soak work count, repeats exactly per seed (first scenario of the run)",
	"scenario.served":            "none: soak work count, repeats exactly per seed (first scenario of the run)",
	"scenario.violations":        "must be 0 (every scenario of the run)",
	"gc.cpu_share":               "every metric on every workload (allocation pressure)",
	"trace.overhead_pct":         "none: rate_per_s lost to tracing, untraced vs traced in the same run",
	"tail.p99_us":                "none, ungated: the end-to-end p99 (open-loop packet, or Connect to first packet); host steal sets it on shared hosts",
}

// beginTrace zeroes every per-layer metric (a layer a workload does not
// exercise reports 0) and starts the GC meter. Tracers call it after
// their untraced part.
func beginTrace(o *outcome) *gcMeter {
	for name := range layerMoves {
		if _, ok := o.layer[name]; !ok {
			o.layer[name] = 0
		}
	}
	return startGCMeter()
}

func overheadPct(plain, traced float64) float64 {
	if traced == 0 {
		return 0
	}
	return (plain/traced - 1) * 100
}

// perCall times fn over the schedule for d in chunks of 256 calls and
// returns the median ns per call across chunks.
func perCall(d time.Duration, fn func(i int64)) float64 {
	const chunk = 256
	var per []float64
	deadline := time.Now().Add(d)
	var i int64
	for time.Now().Before(deadline) {
		t0 := time.Now()
		for k := 0; k < chunk; k++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/chunk)
	}
	return median(per)
}

// allocsPer counts heap allocations per call of fn over n calls.
func allocsPer(n int64, fn func(i int64)) float64 {
	before := mallocs()
	for i := int64(0); i < n; i++ {
		fn(i)
	}
	return float64(mallocs()-before) / float64(n)
}

// tracePackets splits the run: untraced inline (10%), traced inline
// (15%), per-layer call loops (~20%), sharded closed loops at default
// shards and at one shard (25%), and the open loop (30%).
func tracePackets(p params, w *packetWorld, o *outcome) error {
	sec := p.seconds
	plain := median(inlineLoop(w, sec/10, o, nil))
	gm := beginTrace(o)
	var sp inlineSpans
	traced := median(inlineLoop(w, sec*15/100, o, &sp))
	o.layer["trace.overhead_pct"] = overheadPct(plain, traced)
	o.layer["openflow.process_ns"] = float64(sp.process.Nanoseconds()) / float64(sp.packets)
	if sp.wraps > 0 {
		o.layer["tunnel.wrap_ns"] = float64(sp.wrap.Nanoseconds()) / float64(sp.wraps)
	}
	o.layer["openflow.allocs_per_pkt"] = allocsPer(50_000, func(i int64) { w.sw.Process(w.tmpl(i).frame, 0) })
	o.layer["openflow.rules"] = float64(w.sw.Table.Len())

	// The layers the inline path calls, each timed alone over the same
	// frames: decode, the rule lookup on the decoded fields, the expiry
	// scan Switch.Process runs before every lookup, and chain execution.
	o.layer["packet.decode_ns"] = perCall(sec/20, func(i int64) { packet.Decode(w.tmpl(i).frame, packet.LayerTypeIPv4) })
	fields := make([]openflow.PacketFields, len(w.templates))
	chains := make([]string, len(w.templates))
	var chained []int
	for i, t := range w.templates {
		fields[i] = openflow.ExtractFields(packet.Decode(t.frame, packet.LayerTypeIPv4), 0)
		actions, _ := w.sw.Table.Lookup(fields[i], len(t.frame), w.sw.Now())
		for _, a := range actions {
			if a.Type == openflow.ActionTypeMiddlebox {
				chains[i] = a.Chain
				chained = append(chained, i)
			}
		}
	}
	now := w.sw.Now()
	o.layer["openflow.lookup_ns"] = perCall(sec/20, func(i int64) {
		k := w.schedule[i%int64(len(w.schedule))]
		w.sw.Table.Lookup(fields[k], len(w.templates[k].frame), now)
	})
	o.layer["openflow.expire_ns"] = perCall(sec/20, func(int64) { w.sw.Table.Expire(now) })
	if w.rt != nil && len(chained) > 0 {
		chainErrs := int64(0)
		o.layer["middlebox.chain_ns"] = perCall(sec/20, func(i int64) {
			k := chained[i%int64(len(chained))]
			if _, _, err := w.rt.ExecuteChain(chains[k], w.templates[k].frame); err != nil {
				chainErrs++
			}
		})
		o.layer["middlebox.chain_errs"] += float64(chainErrs)
		o.check(chainErrs == 0, "chain loop: %d chain errors", chainErrs)
	}

	prof, err := startProfile()
	if err != nil {
		return err
	}
	m0 := mallocs()
	rates, submitNs, st := closedLoop(w, 0, sec*15/100, o, true)
	tot := st.Total()
	cpu, err := prof.stop()
	if err != nil {
		return err
	}
	o.layer["dataplane.allocs_per_pkt"] = float64(mallocs()-m0) / float64(tot.Processed)
	rates1, _, st1 := closedLoop(w, 1, sec/10, o, false)
	o.layer["dataplane.sharded_pps"] = median(rates)
	o.layer["dataplane.shard_speedup"] = median(rates) / median(rates1)
	if len(st.Shards) == 1 {
		o.notef("dataplane.shard_speedup is n/a: the default shard count is 1 on this host")
	}
	o.layer["dataplane.submit_ns"] = median(submitNs)
	if tot.Batches > 0 {
		o.layer["dataplane.batch_fill"] = float64(tot.Processed) / float64(tot.Batches) / pipeBatch
	}
	// The workers' lookups run inside the pipeline and take unexported
	// cache types, so their cost comes from the profile.
	lookup := cpu.cpu([]string{
		"pvn/internal/dataplane.(*ShardedTable).Lookup",
		"pvn/internal/dataplane.(*ShardedTable).LookupCached",
		"pvn/internal/dataplane.(*ShardedTable).LookupScan",
	})
	o.layer["dataplane.lookup_ns"] = float64(lookup.Nanoseconds()) / float64(tot.Processed)
	o.layer["dataplane.cache_hit_ratio"] = float64(tot.CacheHits) / float64(tot.Processed)

	ol := openLoop(w, sec*3/10, o)
	otot := ol.stats.Total()
	service := float64(otot.TotalNs) / float64(otot.Processed)
	o.layer["dataplane.service_ns"] = service
	o.layer["dataplane.queue_wait_us"] = max(0, ol.pipeP50-service/1e3)
	o.layer["dataplane.gen_late_p99_us"] = ol.lateP99
	o.layer["tail.p99_us"] = ol.p99
	o.layer["dataplane.drops"] = float64(tot.Dropped + st1.Total().Dropped + otot.Dropped)
	o.layer["middlebox.chain_errs"] += float64(tot.ChainErrs + st1.Total().ChainErrs + otot.ChainErrs)
	o.layer["gc.cpu_share"] = gm.share()
	return nil
}

// traceChurn: untraced lifecycles (30%) for the overhead, traced
// lifecycles (45%) with spans around each core call, then the layer
// loop (20%), which times the calls Connect, RoamWith and Teardown make
// inside, each called alone against the resident networks.
func traceChurn(p params, cw *churnWorld, o *outcome) error {
	plain := cw.churnLoop(p.seconds*3/10, o, nil)
	gm := beginTrace(o)
	var sp lifecycleSpans
	traced := cw.churnLoop(p.seconds*45/100, o, &sp)
	o.layer["trace.overhead_pct"] = overheadPct(median(plain.rates), median(traced.rates))
	o.layer["tail.p99_us"] = median(windowQuantiles(traced.setup, traced.cuts, 0.99))
	o.layer["core.connect_us"] = median(sp.connect)
	o.layer["core.first_pkt_us"] = median(sp.firstPkt)
	o.layer["core.roam_us"] = median(sp.roam)
	o.layer["core.teardown_us"] = median(sp.teardown)
	o.layer["deployserver.renew_us"] = median(sp.renew)
	o.layer["openflow.rules"] = float64(cw.nets[0].Server.Switch.Table.Len())

	lt, err := cw.layerLoop(p.seconds / 5)
	if err != nil {
		o.failed++
		o.check(false, "layer loop: %v", err)
	}
	o.attempted += lt.ops
	o.layer["pvnc.parse_reduce_us"] = median(lt.parseReduce)
	o.layer["pvnc.compile_us"] = median(lt.compile)
	o.layer["discovery.negotiate_us"] = median(lt.negotiate)
	o.layer["deployserver.deploy_us"] = median(lt.deploy)
	o.layer["deployserver.teardown_us"] = median(lt.teardown)
	o.layer["openflow.install_us"] = median(lt.install)
	o.layer["middlebox.terminate_us"] = median(lt.terminate)
	o.layer["gc.cpu_share"] = gm.share()
	o.notef("traced %d lifecycles and %d layer-loop rounds", traced.ops, lt.ops)
	return nil
}

// layerTimes are the layer loop's per-call times, µs.
type layerTimes struct {
	parseReduce, compile, negotiate, deploy, teardown, install, terminate []float64
	ops                                                                   int64
}

// layerLoop runs, for d, rounds that each take one churn device through
// the steps a Connect and Teardown make, one public call at a time: parse
// and reduce its PVNC, compile it, negotiate over every network, deploy
// on the chosen one, tear it down; then install its compiled rules into
// a copy of a resident table and instantiate and terminate its boxes on
// that network's runtime. Every step must succeed, and the networks end
// with their residents only (checkResidents).
func (cw *churnWorld) layerLoop(d time.Duration) (layerTimes, error) {
	var lt layerTimes
	tables := make([]*openflow.FlowTable, len(cw.nets))
	for i, n := range cw.nets {
		tables[i] = openflow.NewFlowTable()
		for _, e := range n.Server.Switch.Table.Entries() {
			ec := *e
			tables[i].Install(&ec, cw.now)
		}
	}
	us := func(t0 time.Time) float64 { return durUs(time.Since(t0)) }
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		k := int(lt.ops % churnPool)
		lt.ops++
		dev := cw.devices[k]

		t0 := time.Now()
		cfg, err := pvnc.Parse(cw.sources[k])
		if err != nil {
			return lt, err
		}
		reduced, _, err := pvnc.Reduce(cfg, map[string]bool{"pii-detect": true, "tracker-block": true})
		if err != nil {
			return lt, err
		}
		lt.parseReduce = append(lt.parseReduce, us(t0))
		t0 = time.Now()
		cookie := uint64(1<<40 + lt.ops)
		compiled, err := pvnc.Compile(reduced, pvnc.CompileOptions{Cookie: cookie, UpstreamPort: upstreamPort, ChainNamespace: dev.ID})
		if err != nil {
			return lt, err
		}
		lt.compile = append(lt.compile, us(t0))

		t0 = time.Now()
		neg := discovery.NewNegotiator(dev.ID, dev.Config, dev.BudgetMicro, dev.Strategy)
		dm := neg.MakeDM()
		var offers []*discovery.Offer
		offerNet := map[string]int{}
		for i, n := range cw.nets {
			if offer := n.Server.HandleDM(dm); offer != nil {
				offers = append(offers, offer)
				offerNet[offer.OfferID] = i
			}
		}
		offer, dec, ok := neg.BestOffer(offers, cw.now)
		if !ok {
			return lt, fmt.Errorf("%s: no acceptable offer among %d", dev.ID, len(offers))
		}
		req := neg.BuildDeployRequest(offer, dec)
		lt.negotiate = append(lt.negotiate, us(t0))
		ni := offerNet[offer.OfferID]
		n := cw.nets[ni]

		t0 = time.Now()
		resp := n.Server.HandleDeploy(req)
		lt.deploy = append(lt.deploy, us(t0))
		if !resp.OK {
			return lt, fmt.Errorf("%s: deploy on %s: %s", dev.ID, n.Name, resp.Reason)
		}
		t0 = time.Now()
		_, _, err = n.Server.Teardown(dev.ID)
		lt.teardown = append(lt.teardown, us(t0))
		if err != nil {
			return lt, err
		}

		var install time.Duration
		for i := range compiled.FlowMods {
			fm := &compiled.FlowMods[i]
			if fm.Command != openflow.FlowAdd {
				continue
			}
			e := &openflow.FlowEntry{Priority: fm.Priority, Match: fm.Match, Actions: fm.Actions, Cookie: fm.Cookie}
			t0 = time.Now()
			tables[ni].Install(e, cw.now)
			install += time.Since(t0)
		}
		lt.install = append(lt.install, durUs(install))
		tables[ni].RemoveByCookie(cookie)

		var terminate time.Duration
		for _, plan := range compiled.Middleboxes {
			inst, err := n.Server.Runtime.Instantiate(compiled.Owner, plan.Type, plan.Config)
			if err != nil {
				return lt, err
			}
			t0 = time.Now()
			err = n.Server.Runtime.Terminate(inst.ID)
			terminate += time.Since(t0)
			if err != nil {
				return lt, err
			}
		}
		lt.terminate = append(lt.terminate, durUs(terminate))
	}
	return lt, nil
}

// traceSoak: untraced scenarios (30%) for the overhead, then the same
// seeds and more traced (70%) under a CPU profile folded onto the
// overlay's code. The scenario.* work counts are the first scenario's,
// which the seed fixes; scenario.violations counts every distinct
// scenario of the run.
func traceSoak(p params, o *outcome) ([]soakResult, error) {
	plain := soakLoop(p.seed, 0, p.seconds*3/10, o, nil)
	gm := beginTrace(o)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced := soakLoop(p.seed, 0, p.seconds*7/10, o, nil)
	cpu, err := prof.stop()
	if err != nil {
		return nil, err
	}
	o.layer["gc.cpu_share"] = gm.share()
	rate := func(rs []soakResult) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.simRate()
		}
		return median(xs)
	}
	o.layer["trace.overhead_pct"] = overheadPct(rate(plain), rate(traced))
	overlay := []string{"pvn/internal/overlay."}
	o.layer["overlay.cpu_share"] = cpu.share(overlay)
	o.layer["overlay.codec_cpu_share"] = cpu.share(overlay, []string{"encoding/json."})
	o.layer["overlay.repstore_cpu_share"] = cpu.share([]string{"pvn/internal/overlay.(*RepStore).Sample"})
	o.layer["overlay.verify_cpu_share"] = cpu.share(overlay, []string{"crypto/ed25519.Verify"})
	first := traced[0].sum
	o.layer["scenario.ops"] = float64(first.Ops)
	o.layer["scenario.sent"] = float64(first.Sent)
	o.layer["scenario.served"] = float64(first.Served)
	violations := 0
	for _, r := range traced {
		violations += r.sum.Violations
	}
	for _, r := range plain[min(len(traced), len(plain)):] {
		violations += r.sum.Violations
	}
	o.layer["scenario.violations"] = float64(violations)
	o.notef("traced %d scenarios, %d untraced, profile %v of CPU in %d stacks", len(traced), len(plain), cpu.total, len(cpu.samples))
	return traced, nil
}
