package openflow

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlowEntry is one rule: if Match, run Actions. Higher Priority wins;
// among equal priorities the earliest-installed entry wins
// (deterministic, like OpenFlow's undefined-order made concrete).
type FlowEntry struct {
	Priority int
	Match    Match
	Actions  []Action
	// Cookie is an opaque owner tag; the PVN deployment server uses it
	// to attribute rules to user deployments and tear them down.
	Cookie uint64
	// IdleTimeout evicts the entry when unused this long; 0 = never.
	IdleTimeout time.Duration
	// HardTimeout evicts the entry this long after install; 0 = never.
	HardTimeout time.Duration

	// Counters.
	Packets int64
	Bytes   int64

	installedAt time.Duration
	lastUsed    time.Duration
	seq         uint64
}

// String implements fmt.Stringer.
func (e *FlowEntry) String() string {
	return fmt.Sprintf("prio=%d %s -> %v (pkts=%d)", e.Priority, e.Match.String(), e.Actions, atomic.LoadInt64(&e.Packets))
}

// RuleTable is the table surface flow mods and the deployment pipeline
// drive. Both the legacy FlowTable and the dataplane's ShardedTable
// implement it, so control-plane code is agnostic to which data plane
// is running.
type RuleTable interface {
	Install(e *FlowEntry, now time.Duration)
	RemoveByCookie(cookie uint64) int
	StatsByCookie(cookie uint64) (packets, bytes int64)
	Len() int
}

// FlowTable is a priority-ordered rule set. It is safe for concurrent
// use: lookups from many dataplane workers proceed under a shared read
// lock with atomic counter updates, while the (rare) control-plane
// writes (Install/RemoveByCookie/Expire, possibly arriving over a
// controller channel on another goroutine) take the write lock — the
// boundary a hardware table's driver would own.
//
// Two pieces of bookkeeping keep the per-packet work independent of the
// rule count. expiryFloor is a lower bound on the earliest instant any
// entry can time out, so Expire before that instant returns without a
// lock or a scan. gen counts changes to the rule set, so a FlowCache
// knows when its memoized lookups went stale.
type FlowTable struct {
	mu      sync.RWMutex
	entries []*FlowEntry
	nextSeq uint64
	// gen is bumped (under mu) by every change to the entry set; matching
	// depends on nothing else.
	gen uint64
	// expiryFloor (time.Duration ns) is never above the earliest expiry
	// instant of any entry: Install and Lookup lower it, and a full
	// Expire scan recomputes it from the survivors. neverExpires when no
	// entry has a timeout.
	expiryFloor atomic.Int64
	// MissActions run on table miss. Default: punt to controller. Set
	// before the table is shared.
	MissActions []Action
}

// neverExpires is the expiry floor of a table without timeouts.
const neverExpires = math.MaxInt64

// maxCachedFlows caps a FlowCache: a cache that fills up is reset, so a
// scan over many distinct flows cannot grow it without bound.
const maxCachedFlows = 1 << 16

// NewFlowTable returns an empty table whose miss behaviour is
// ToController, the OpenFlow default PVN relies on.
func NewFlowTable() *FlowTable {
	t := &FlowTable{MissActions: []Action{ToController()}}
	t.expiryFloor.Store(neverExpires)
	return t
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Entries returns the entries in match order (highest priority first).
// The returned entries are live: their counters may keep changing.
func (t *FlowTable) Entries() []*FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*FlowEntry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Install adds an entry at the given simulated time and keeps the table
// sorted by (priority desc, seq asc). The new entry has the highest seq,
// so it goes after every entry of its priority: a binary search finds
// the spot, with no re-sort of the table.
func (t *FlowTable) Install(e *FlowEntry, now time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.seq = t.nextSeq
	t.nextSeq++
	e.installedAt = now
	atomic.StoreInt64((*int64)(&e.lastUsed), int64(now))
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Priority < e.Priority })
	t.entries = slices.Insert(t.entries, i, e)
	t.gen++
	t.lowerExpiryFloor(e.expiresAt())
}

// Lookup returns the actions for the packet summary and updates counters.
// Misses return the table's MissActions and a nil entry. Concurrent
// lookups share a read lock and bump counters atomically, so dataplane
// workers never serialize against each other — only against rule writes.
func (t *FlowTable) Lookup(f PacketFields, size int, now time.Duration) ([]Action, *FlowEntry) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e := t.match(f); e != nil {
		t.hit(e, size, now)
		return e.Actions, e
	}
	return t.MissActions, nil
}

// FlowCache memoizes FlowTable lookups by exact packet fields, in the
// spirit of OVS's exact-match cache. Match.Matches reads nothing but the
// PacketFields, so a cached winner (or a cached miss, stored as nil) is
// exact for every packet with the same fields until the table's rule set
// changes. The zero value is ready to use. A FlowCache is not safe for
// concurrent use: each caller goroutine owns its own.
type FlowCache struct {
	table *FlowTable
	gen   uint64
	m     map[PacketFields]*FlowEntry
}

// LookupCached is Lookup through the caller's cache. Counters, lastUsed
// and the returned entry are exactly what Lookup would produce; only the
// linear scan is skipped when the fields were seen since the last rule
// change.
func (t *FlowTable) LookupCached(c *FlowCache, f PacketFields, size int, now time.Duration) ([]Action, *FlowEntry) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if c.table != t || c.gen != t.gen {
		c.table, c.gen = t, t.gen
		clear(c.m)
	}
	e, ok := c.m[f]
	if !ok {
		e = t.match(f)
		if c.m == nil {
			c.m = make(map[PacketFields]*FlowEntry)
		} else if len(c.m) >= maxCachedFlows {
			clear(c.m)
		}
		c.m[f] = e
	}
	if e == nil {
		return t.MissActions, nil
	}
	t.hit(e, size, now)
	return e.Actions, e
}

// match returns the first entry in match order that matches f, or nil.
// Callers hold t.mu.
func (t *FlowTable) match(f PacketFields) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.Matches(f) {
			return e
		}
	}
	return nil
}

// hit counts one packet against e and stamps its idle timer. A stamp
// earlier than the entry's last (callers need not pass monotone times)
// can move its idle expiry below the floor, so the floor follows it.
// Callers hold t.mu for reading.
func (t *FlowTable) hit(e *FlowEntry, size int, now time.Duration) {
	atomic.AddInt64(&e.Packets, 1)
	atomic.AddInt64(&e.Bytes, int64(size))
	atomic.StoreInt64((*int64)(&e.lastUsed), int64(now))
	if e.IdleTimeout > 0 {
		t.lowerExpiryFloor(addSat(now, e.IdleTimeout))
	}
}

// lowerExpiryFloor moves the floor down to d if d is below it.
func (t *FlowTable) lowerExpiryFloor(d time.Duration) {
	for {
		cur := t.expiryFloor.Load()
		if int64(d) >= cur || t.expiryFloor.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// expiresAt is the earliest instant e can time out (neverExpires when it
// has no timeout).
func (e *FlowEntry) expiresAt() time.Duration {
	at := time.Duration(neverExpires)
	if e.HardTimeout > 0 {
		at = min(at, addSat(e.installedAt, e.HardTimeout))
	}
	if e.IdleTimeout > 0 {
		at = min(at, addSat(time.Duration(atomic.LoadInt64((*int64)(&e.lastUsed))), e.IdleTimeout))
	}
	return at
}

// addSat is a+b for a timeout b > 0, saturating at neverExpires.
func addSat(a, b time.Duration) time.Duration {
	if a > neverExpires-b {
		return neverExpires
	}
	return a + b
}

// Expire removes entries whose idle or hard timeout has passed and
// returns them (so the switch can notify the controller). Before the
// expiry floor nothing can have timed out, so it returns nil at once;
// otherwise it scans the table and recomputes the floor.
func (t *FlowTable) Expire(now time.Duration) []*FlowEntry {
	if int64(now) < t.expiryFloor.Load() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var expired []*FlowEntry
	kept := t.entries[:0]
	floor := time.Duration(neverExpires)
	for _, e := range t.entries {
		dead := false
		if e.HardTimeout > 0 && now-e.installedAt >= e.HardTimeout {
			dead = true
		}
		if e.IdleTimeout > 0 && now-time.Duration(atomic.LoadInt64((*int64)(&e.lastUsed))) >= e.IdleTimeout {
			dead = true
		}
		if dead {
			expired = append(expired, e)
		} else {
			kept = append(kept, e)
			floor = min(floor, e.expiresAt())
		}
	}
	t.entries = kept
	t.expiryFloor.Store(int64(floor))
	if len(expired) > 0 {
		t.gen++
	}
	return expired
}

// RemoveByCookie deletes all entries with the given cookie and returns how
// many were removed. The deployment server uses this for PVN teardown.
func (t *FlowTable) RemoveByCookie(cookie uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.entries[:0]
	removed := 0
	for _, e := range t.entries {
		if e.Cookie == cookie {
			removed++
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if removed > 0 {
		t.gen++
	}
	return removed
}

// StatsByCookie sums packet/byte counters over entries with the cookie,
// the data source for usage-based billing.
func (t *FlowTable) StatsByCookie(cookie uint64) (packets, bytes int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		if e.Cookie == cookie {
			packets += atomic.LoadInt64(&e.Packets)
			bytes += atomic.LoadInt64(&e.Bytes)
		}
	}
	return packets, bytes
}
