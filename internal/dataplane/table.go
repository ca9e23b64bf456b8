package dataplane

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// entry wraps an installed rule with dataplane-side mutable state. The
// embedded *openflow.FlowEntry is treated as an immutable descriptor
// (priority, match, actions, cookie, timeouts); all counters workers
// touch live here as atomics, so lookups from many shards never need a
// lock and never write to memory the control plane reads unsynchronized.
type entry struct {
	*openflow.FlowEntry

	seq         uint64
	installedAt time.Duration

	packets  atomic.Int64
	bytes    atomic.Int64
	lastUsed atomic.Int64 // time.Duration ns
}

// snapshot is one immutable generation of the rule set, sorted in match
// order (priority desc, install seq asc). Workers read it via an atomic
// pointer; writers build a fresh copy and swap it in, so the lookup path
// never blocks on the control plane.
type snapshot struct {
	gen     uint64
	entries []*entry
	miss    []openflow.Action
}

// ShardedTable is the dataplane's flow-state layer: a copy-on-write rule
// snapshot shared by all shards, plus per-shard exact-match flow caches
// (see flowCache) that each worker owns exclusively. Rule updates from
// the control plane (deployserver flow mods, which cmd/pvnd mirrors in
// through deployserver.Config.ExtraRules, and direct Install calls)
// serialize on a writer mutex and publish a new snapshot atomically;
// in-flight lookups keep using the old generation until their next
// packet.
//
// ShardedTable implements openflow.RuleTable, so openflow.FlowMod.Apply
// drives it exactly like the legacy FlowTable.
type ShardedTable struct {
	mu      sync.Mutex // serializes writers
	snap    atomic.Pointer[snapshot]
	nextSeq uint64
}

// NewShardedTable returns an empty table whose miss behaviour is
// ToController, matching openflow.NewFlowTable.
func NewShardedTable() *ShardedTable {
	t := &ShardedTable{}
	t.snap.Store(&snapshot{miss: []openflow.Action{openflow.ToController()}})
	return t
}

// SetMissActions replaces the table-miss actions.
func (t *ShardedTable) SetMissActions(a []openflow.Action) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publish(t.snap.Load().entries, a)
}

// publish installs a new snapshot; callers hold t.mu.
func (t *ShardedTable) publish(entries []*entry, miss []openflow.Action) {
	old := t.snap.Load()
	t.snap.Store(&snapshot{gen: old.gen + 1, entries: entries, miss: miss})
}

// Len returns the number of installed entries.
func (t *ShardedTable) Len() int { return len(t.snap.Load().entries) }

// Install adds a rule at the given simulated time. The FlowEntry is
// retained as an immutable descriptor; its Packets/Bytes fields are only
// written back when the entry expires or is listed via Entries.
func (t *ShardedTable) Install(fe *openflow.FlowEntry, now time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &entry{FlowEntry: fe, seq: t.nextSeq, installedAt: now}
	e.lastUsed.Store(int64(now))
	t.nextSeq++
	old := t.snap.Load().entries
	entries := make([]*entry, 0, len(old)+1)
	entries = append(entries, old...)
	entries = append(entries, e)
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Priority != entries[j].Priority {
			return entries[i].Priority > entries[j].Priority
		}
		return entries[i].seq < entries[j].seq
	})
	t.publish(entries, t.snap.Load().miss)
}

// RemoveByCookie deletes all entries with the cookie and returns the
// count, like the legacy table's PVN teardown path.
func (t *ShardedTable) RemoveByCookie(cookie uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load().entries
	kept := make([]*entry, 0, len(old))
	removed := 0
	for _, e := range old {
		if e.Cookie == cookie {
			e.materialize()
			removed++
		} else {
			kept = append(kept, e)
		}
	}
	if removed > 0 {
		t.publish(kept, t.snap.Load().miss)
	}
	return removed
}

// Expire removes entries whose idle or hard timeout has passed and
// returns their descriptors with final counters filled in.
func (t *ShardedTable) Expire(now time.Duration) []*openflow.FlowEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load().entries
	var expired []*openflow.FlowEntry
	kept := make([]*entry, 0, len(old))
	for _, e := range old {
		dead := false
		if e.HardTimeout > 0 && now-e.installedAt >= e.HardTimeout {
			dead = true
		}
		if e.IdleTimeout > 0 && now-time.Duration(e.lastUsed.Load()) >= e.IdleTimeout {
			dead = true
		}
		if dead {
			e.materialize()
			expired = append(expired, e.FlowEntry)
		} else {
			kept = append(kept, e)
		}
	}
	if len(expired) > 0 {
		t.publish(kept, t.snap.Load().miss)
	}
	return expired
}

// materialize copies the atomic counters back into the descriptor so
// code holding the *openflow.FlowEntry (expiry notifications, manifest
// listings) sees final values.
func (e *entry) materialize() {
	e.FlowEntry.Packets = e.packets.Load()
	e.FlowEntry.Bytes = e.bytes.Load()
}

// StatsByCookie sums packet/byte counters over live entries with the
// cookie — the billing read.
func (t *ShardedTable) StatsByCookie(cookie uint64) (packets, bytes int64) {
	for _, e := range t.snap.Load().entries {
		if e.Cookie == cookie {
			packets += e.packets.Load()
			bytes += e.bytes.Load()
		}
	}
	return packets, bytes
}

// Entries returns copies of the installed rules in match order with
// current counters. Copies, not live entries: the originals keep
// changing under concurrent workers.
func (t *ShardedTable) Entries() []*openflow.FlowEntry {
	snap := t.snap.Load()
	out := make([]*openflow.FlowEntry, 0, len(snap.entries))
	for _, e := range snap.entries {
		fe := *e.FlowEntry
		fe.Packets = e.packets.Load()
		fe.Bytes = e.bytes.Load()
		out = append(out, &fe)
	}
	return out
}

// cacheKey identifies one exact flow at one ingress port — everything a
// Match can discriminate on for IPv4 traffic, so a cached decision is
// valid for every packet of the flow within one snapshot generation.
type cacheKey struct {
	flow   packet.Flow
	inPort uint16
}

// flowCache is a per-shard exact-match fast path over the shared rule
// snapshot, in the spirit of OVS's flow cache. It is owned by exactly
// one worker goroutine and therefore needs no lock; a generation bump
// (any rule update or expiry) invalidates it wholesale, and so does
// filling up to maxCachedFlows, so a scan over many distinct 5-tuples
// cannot grow it without bound.
type flowCache struct {
	gen uint64
	m   map[cacheKey]*entry
}

// maxCachedFlows caps one shard's flowCache (the same cap as
// openflow.FlowCache's).
const maxCachedFlows = 1 << 16

func newFlowCache() *flowCache { return &flowCache{m: make(map[cacheKey]*entry)} }

// Lookup resolves actions for one packet, preferring the shard cache.
// cacheable is false for packets whose 5-tuple could not be extracted
// (they still match, just uncached). It reports whether the cache was
// hit, for per-shard metrics.
//
// Hot paths that can defer field extraction should call LookupCached
// first and only pay for a header decode on a miss (see the worker
// loop); Lookup composes the two for callers that already hold fields.
func (t *ShardedTable) Lookup(c *flowCache, key cacheKey, cacheable bool, fields openflow.PacketFields, size int, now time.Duration) (actions []openflow.Action, hit bool) {
	if actions, hit = t.LookupCached(c, key, cacheable, size, now); hit {
		return actions, true
	}
	return t.LookupScan(c, key, cacheable, fields, size, now), false
}

// LookupCached answers from the shard's exact-match cache alone — the
// steady-state fast path, which needs only the 5-tuple key extracted at
// Submit and no packet decode at all. A false return means the caller
// must extract match fields and call LookupScan.
func (t *ShardedTable) LookupCached(c *flowCache, key cacheKey, cacheable bool, size int, now time.Duration) ([]openflow.Action, bool) {
	snap := t.snap.Load()
	if c.gen != snap.gen {
		c.gen = snap.gen
		clear(c.m)
	}
	if !cacheable {
		return nil, false
	}
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	e.count(size, now)
	return e.Actions, true
}

// LookupScan walks the rule snapshot in match order and memoizes the
// winning entry in the shard cache. Callers must have tried LookupCached
// first (it also syncs the cache generation).
func (t *ShardedTable) LookupScan(c *flowCache, key cacheKey, cacheable bool, fields openflow.PacketFields, size int, now time.Duration) []openflow.Action {
	snap := t.snap.Load()
	for _, e := range snap.entries {
		if e.Match.Matches(fields) {
			e.count(size, now)
			if cacheable {
				if len(c.m) >= maxCachedFlows {
					clear(c.m)
				}
				c.m[key] = e
			}
			return e.Actions
		}
	}
	return snap.miss
}

func (e *entry) count(size int, now time.Duration) {
	e.packets.Add(1)
	e.bytes.Add(int64(size))
	e.lastUsed.Store(int64(now))
}
