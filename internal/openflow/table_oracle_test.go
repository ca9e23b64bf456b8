package openflow

// Differential oracle for FlowTable's fast paths (the expiry floor, the
// binary-search insert and the FlowCache): a reference table with a
// linear scan, full-scan expiry, a re-sort on every install and no cache
// runs the same operation stream, and every lookup, counter and expired
// set must agree.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"pvn/internal/packet"
)

// refEntry is the reference table's copy of one installed rule.
type refEntry struct {
	id                    int
	prio                  int
	match                 Match
	actions               []Action
	cookie                uint64
	idle, hard            time.Duration
	installedAt, lastUsed time.Duration
	packets, bytes        int64
}

// refTable is the plain implementation the fast paths must match.
type refTable struct {
	entries []*refEntry
	miss    []Action
}

func (r *refTable) install(e *refEntry, now time.Duration) {
	e.installedAt, e.lastUsed = now, now
	r.entries = append(r.entries, e)
	sort.SliceStable(r.entries, func(i, j int) bool { return r.entries[i].prio > r.entries[j].prio })
}

func (r *refTable) lookup(f PacketFields, size int, now time.Duration) ([]Action, *refEntry) {
	for _, e := range r.entries {
		if e.match.Matches(f) {
			e.packets++
			e.bytes += int64(size)
			e.lastUsed = now
			return e.actions, e
		}
	}
	return r.miss, nil
}

func (r *refTable) expire(now time.Duration) []*refEntry {
	var expired, kept []*refEntry
	for _, e := range r.entries {
		if (e.hard > 0 && now-e.installedAt >= e.hard) || (e.idle > 0 && now-e.lastUsed >= e.idle) {
			expired = append(expired, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	return expired
}

func (r *refTable) removeByCookie(cookie uint64) int {
	var kept []*refEntry
	for _, e := range r.entries {
		if e.cookie != cookie {
			kept = append(kept, e)
		}
	}
	removed := len(r.entries) - len(kept)
	r.entries = kept
	return removed
}

// opReader hands out the fuzz input a byte at a time, zero once spent.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// fields draws packet fields from a small universe (32 packets), so
// rules and packets collide and cached lookups repeat.
func (r *opReader) fields() PacketFields {
	b := r.next()
	return PacketFields{
		InPort:  uint16(b & 1),
		EthType: packet.EtherTypeIPv4,
		SrcIP:   packet.IPv4Address{10, 0, 0, (b >> 1) & 1},
		DstIP:   packet.IPv4Address{93, 184, 216, 34},
		Proto:   []byte{packet.IPProtoTCP, packet.IPProtoUDP}[(b>>2)&1],
		DstPort: []uint16{80, 443}[(b>>3)&1],
		SrcPort: 40000 + uint16(b>>4)&1,
	}
}

// match builds a rule match over the same universe: a random subset of
// one drawn packet's fields, with the source as a /31 or /32.
func (r *opReader) match() Match {
	f := r.fields()
	m := Match{
		Fields: FieldSet(r.next()) & (FieldInPort | FieldSrcIP | FieldProto | FieldSrcPort | FieldDstPort),
		InPort: f.InPort, SrcIP: f.SrcIP, SrcBits: 31 + r.next()%2,
		Proto: f.Proto, SrcPort: f.SrcPort, DstPort: f.DstPort,
	}
	return m
}

// at draws a simulated time; successive times are not monotone.
func (r *opReader) at() time.Duration { return time.Duration(r.next()) * 5 * time.Millisecond }

func (r *opReader) timeout() time.Duration {
	if b := r.next(); b%3 != 0 {
		return time.Duration(b%16) * 20 * time.Millisecond
	}
	return 0
}

// runTableOracle drives a FlowTable (through both Lookup and one
// FlowCache) and the reference with the operation stream ops and fails
// on the first disagreement.
func runTableOracle(t *testing.T, ops []byte) {
	tbl := NewFlowTable()
	ref := &refTable{miss: tbl.MissActions}
	var cache FlowCache
	ids := map[*FlowEntry]int{}
	byID := map[int]*FlowEntry{}
	idOf := func(e *FlowEntry) int {
		if e == nil {
			return -1
		}
		id, ok := ids[e]
		if !ok {
			t.Fatalf("table returned an entry it never installed: %v", e)
		}
		return id
	}
	refID := func(e *refEntry) int {
		if e == nil {
			return -1
		}
		return e.id
	}
	r := &opReader{b: ops}
	for step := 0; r.i < len(r.b); step++ {
		switch op := r.next() % 16; {
		case op < 3:
			e := &refEntry{id: len(ids), prio: int(r.next() % 4), match: r.match(),
				actions: []Action{Output(uint16(len(ids)))}, cookie: uint64(r.next() % 4),
				idle: r.timeout(), hard: r.timeout()}
			fe := &FlowEntry{Priority: e.prio, Match: e.match, Actions: e.actions, Cookie: e.cookie,
				IdleTimeout: e.idle, HardTimeout: e.hard}
			ids[fe], byID[e.id] = e.id, fe
			now := r.at()
			tbl.Install(fe, now)
			ref.install(e, now)
		case op == 3:
			c := uint64(r.next() % 4)
			if got, want := tbl.RemoveByCookie(c), ref.removeByCookie(c); got != want {
				t.Fatalf("step %d: RemoveByCookie(%d) removed %d, reference %d", step, c, got, want)
			}
		case op < 6:
			now := r.at()
			var got, want []int
			for _, e := range tbl.Expire(now) {
				got = append(got, idOf(e))
			}
			for _, e := range ref.expire(now) {
				want = append(want, e.id)
				if fe := byID[e.id]; fe.Packets != e.packets || fe.Bytes != e.bytes {
					t.Fatalf("step %d: expired entry %d counters %d/%d, reference %d/%d",
						step, e.id, fe.Packets, fe.Bytes, e.packets, e.bytes)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Expire(%v) = %v, reference %v", step, now, got, want)
			}
		default:
			f, size, now := r.fields(), int(r.next())+1, r.at()
			var acts []Action
			var e *FlowEntry
			cached := op >= 11
			if cached {
				acts, e = tbl.LookupCached(&cache, f, size, now)
			} else {
				acts, e = tbl.Lookup(f, size, now)
			}
			wantActs, we := ref.lookup(f, size, now)
			if idOf(e) != refID(we) || !reflect.DeepEqual(acts, wantActs) {
				t.Fatalf("step %d: lookup(%+v, cached=%v) = entry %d %v, reference %d %v",
					step, f, cached, idOf(e), acts, refID(we), wantActs)
			}
		}
		live := tbl.Entries()
		if len(live) != len(ref.entries) {
			t.Fatalf("step %d: table holds %d entries, reference %d", step, len(live), len(ref.entries))
		}
		for i, fe := range live {
			we := ref.entries[i]
			if idOf(fe) != we.id || fe.Packets != we.packets || fe.Bytes != we.bytes {
				t.Fatalf("step %d: slot %d holds entry %d (%d/%d), reference entry %d (%d/%d)",
					step, i, idOf(fe), fe.Packets, fe.Bytes, we.id, we.packets, we.bytes)
			}
		}
	}
}

// FuzzFlowTableAgainstReference interleaves Install, RemoveByCookie,
// Expire and cached and uncached lookups, at times that jump back and
// forth, over rules with idle/hard timeouts and shared cookies.
func FuzzFlowTableAgainstReference(f *testing.F) {
	f.Add([]byte{})
	// An idle-timeout rule touched late, then early, expired in between.
	f.Add([]byte{0, 1, 0x00, 0x1f, 0, 1, 4, 0, 0, 6, 0x00, 9, 200, 11, 0x00, 9, 2, 4, 30, 4, 250})
	// Two priorities sharing a cookie, cached lookups across a removal.
	f.Add([]byte{0, 2, 0x00, 0, 0, 1, 0, 0, 0, 0, 1, 0x08, 0x10, 1, 1, 0, 0, 0,
		11, 0x08, 9, 1, 11, 0x00, 9, 1, 3, 1, 12, 0x08, 9, 1, 12, 0x00, 9, 1})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(runTableOracle)
}

// TestFlowTableAgainstReferenceRandom runs the oracle over random
// streams, so plain `go test` covers far more than the fuzz seeds.
func TestFlowTableAgainstReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		ops := make([]byte, 64+rng.Intn(1024))
		rng.Read(ops)
		runTableOracle(t, ops)
	}
}
