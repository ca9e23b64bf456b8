package openflow

import (
	"sync"
	"testing"
	"time"

	"pvn/internal/packet"
)

// TestExpireFloorFollowsBackdatedLookup: a lookup stamped earlier than
// the entry's last use pulls its idle expiry back, and Expire must still
// find it, although an earlier scan had set the floor later.
func TestExpireFloorFollowsBackdatedLookup(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 1, IdleTimeout: 100 * time.Millisecond, Actions: []Action{Output(1)}}, 0)
	if exp := tbl.Expire(50 * time.Millisecond); exp != nil {
		t.Fatalf("expired %v before the idle timeout", exp)
	}
	tbl.Lookup(PacketFields{}, 1, time.Second)
	if exp := tbl.Expire(1050 * time.Millisecond); exp != nil {
		t.Fatalf("expired %v 50ms after use", exp)
	}
	tbl.Lookup(PacketFields{}, 1, 10*time.Millisecond) // the floor was 1.1s
	if exp := tbl.Expire(200 * time.Millisecond); len(exp) != 1 {
		t.Fatalf("Expire(200ms) after a use at 10ms removed %d entries, want 1", len(exp))
	}
}

// TestSwitchCacheFollowsTableReassignment: two fresh tables reach the
// same generation; a switch whose Table is swapped must not answer from
// the old table's cached winner.
func TestSwitchCacheFollowsTableReassignment(t *testing.T) {
	sw := NewSwitch("s", nil)
	sw.Table.Install(&FlowEntry{Actions: []Action{Output(1)}}, 0)
	pkt := tcpPacket(t, clientIP, webIP, 40000, 80, "x")
	if d := sw.Process(pkt, 0); d.Port != 1 {
		t.Fatalf("port %d, want 1", d.Port)
	}
	other := NewFlowTable()
	other.Install(&FlowEntry{Actions: []Action{Output(2)}}, 0)
	sw.Table = other
	if d := sw.Process(pkt, 0); d.Port != 2 {
		t.Fatalf("after swapping tables: port %d, want 2", d.Port)
	}
}

// TestFlowCacheBounded feeds more distinct flows than the cap through
// one cache: it never holds more than maxCachedFlows entries, and every
// answer equals the uncached scan's.
func TestFlowCacheBounded(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 9, Match: Match{Fields: FieldDstPort, DstPort: 80}, Actions: []Action{Output(7)}}, 0)
	tbl.Install(&FlowEntry{Priority: 1, Match: Match{Fields: FieldProto, Proto: packet.IPProtoTCP}, Actions: []Action{Output(1)}}, 0)
	var c FlowCache
	const flows = maxCachedFlows + 5000
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < flows; i++ {
			f := PacketFields{EthType: packet.EtherTypeIPv4, SrcIP: clientIP, DstIP: webIP,
				Proto: []byte{packet.IPProtoTCP, packet.IPProtoUDP}[i%2], SrcPort: uint16(i >> 2), DstPort: []uint16{80, 443}[(i>>1)%2]}
			_, got := tbl.LookupCached(&c, f, 40, 0)
			if want := tbl.match(f); got != want {
				t.Fatalf("pass %d flow %d (%+v): cached entry %v, scan %v", pass, i, f, got, want)
			}
			if len(c.m) > maxCachedFlows {
				t.Fatalf("cache holds %d flows, cap %d", len(c.m), maxCachedFlows)
			}
		}
	}
}

// TestSwitchProcessConcurrentRuleChurn runs Switch.Process on one
// goroutine while another installs and removes rules (run it under
// -race). A permanent port-80 rule must win every port-80 packet, every
// disposition must be the matched entry's own output, and once the
// churn stops the switch must agree with an uncached lookup everywhere.
func TestSwitchProcessConcurrentRuleChurn(t *testing.T) {
	sw := NewSwitch("s", nil)
	sw.Table.Install(&FlowEntry{Priority: 100, Match: Match{Fields: FieldDstPort, DstPort: 80}, Actions: []Action{Output(80)}}, 0)
	var pkts [][]byte
	for i := 0; i < 16; i++ {
		pkts = append(pkts, tcpPacket(t, clientIP, webIP, uint16(40000+i), []uint16{80, 443, 8080, 25}[i%4], "x"))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sw.Table.Install(&FlowEntry{Priority: i % 7, Cookie: uint64(1 + i%3),
				Match:   Match{Fields: FieldDstPort, DstPort: []uint16{443, 8080, 25}[i%3]},
				Actions: []Action{Output(uint16(1000 + i%3))}}, 0)
			if i%2 == 1 {
				sw.Table.RemoveByCookie(uint64(1 + (i/2)%3))
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		d := sw.Process(pkts[i%len(pkts)], 0)
		if i%4 == 0 && (d.Verdict != VerdictOutput || d.Port != 80) {
			t.Fatalf("port-80 packet: verdict %v port %d", d.Verdict, d.Port)
		}
		if d.Entry != nil && (d.Verdict != VerdictOutput || d.Port != d.Entry.Actions[0].Port) {
			t.Fatalf("disposition %v:%d disagrees with its entry %v", d.Verdict, d.Port, d.Entry)
		}
	}
	close(stop)
	wg.Wait()
	for _, pkt := range pkts {
		d := sw.Process(pkt, 0)
		_, want := sw.Table.Lookup(ExtractFields(packet.Decode(pkt, packet.LayerTypeIPv4), 0), len(pkt), 0)
		if d.Entry != want {
			t.Fatalf("after churn: switch matched %v, table scan %v", d.Entry, want)
		}
	}
}
