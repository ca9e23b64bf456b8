package dataplane

// Tests for the flow-cache key: a packet may share a cache slot with a
// flow only if the decoder reads the same match fields from it, and the
// per-shard cache stays bounded however many flows pass through.

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"pvn/internal/middlebox"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// viaChainRules is a PVN's port-80 policy: web traffic through the
// chain, then out port 7; everything else straight out port 1.
func viaChainRules(rt openflow.RuleTable) {
	rt.Install(&openflow.FlowEntry{
		Priority: 100,
		Match:    openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: 80},
		Actions:  []openflow.Action{openflow.ToMiddlebox("u/c"), openflow.Output(7)},
	}, 0)
	rt.Install(&openflow.FlowEntry{Actions: []openflow.Action{openflow.Output(1)}}, 0)
}

// poisonFrames returns packets whose raw bytes carry the 5-tuple
// 10.0.0.5:40000 -> 93.184.216.34:80 but which the decoder does not read
// as that TCP flow, so the serial switch matches them on other fields.
func poisonFrames(t *testing.T) map[string][]byte {
	t.Helper()
	src, dst := packet.MustParseIPv4("10.0.0.5"), packet.MustParseIPv4("93.184.216.34")
	full := mustFrame(t, "10.0.0.5", "93.184.216.34", 40000, 80)

	// A non-first fragment whose payload happens to begin like the
	// flow's TCP header, too short to decode as one.
	frag, err := packet.SerializeToBytes(&packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP, FragOff: 185},
		packet.Payload([]byte{0x9c, 0x40, 0x00, 0x50, 1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	badCsum := append([]byte(nil), full...)
	badCsum[10] ^= 0xff
	badOff := append([]byte(nil), full...)
	badOff[20+12] = 0xf0 // TCP data offset 60 > segment length
	short := append([]byte(nil), full...)
	binary.BigEndian.PutUint16(short[2:4], 30) // total length ends inside the TCP header
	short[10], short[11] = 0, 0
	binary.BigEndian.PutUint16(short[10:12], packet.Checksum(short[:20]))
	return map[string][]byte{
		"truncated-tcp":       full[:24],
		"non-first-fragment":  frag,
		"bad-ip-checksum":     badCsum,
		"bad-tcp-data-offset": badOff,
		"short-total-length":  short,
	}
}

// TestFlowCachePoisoning: a packet that the decoder does not read as the
// flow must not seed the flow's cache slot. Before the fix each poison
// packet matched the catch-all rule and was cached under the flow's raw
// 5-tuple, so the flow's next real port-80 packet left on port 1 without
// passing its chain. The pipeline's verdicts must equal the serial
// switch's, packet by packet.
func TestFlowCachePoisoning(t *testing.T) {
	real80 := mustFrame(t, "10.0.0.5", "93.184.216.34", 40000, 80)
	for name, poison := range poisonFrames(t) {
		t.Run(name, func(t *testing.T) {
			seq := [][]byte{poison, real80, poison, real80}

			sw := openflow.NewSwitch("ref", nil)
			sw.Chains = buildRuntime(t)
			viaChainRules(sw.Table)
			var want []uint16
			for _, data := range seq {
				d := sw.Process(data, 0)
				if d.Verdict != openflow.VerdictOutput {
					t.Fatalf("serial verdict %v, want output", d.Verdict)
				}
				want = append(want, d.Port)
			}
			if want[0] != 1 || want[1] != 7 {
				t.Fatalf("serial ports %v: the poison packet must take the catch-all, the real one the chain", want)
			}

			var mu sync.Mutex
			var got []uint16
			p := New(Config{
				Shards: 1,
				Chains: middlebox.Synchronized(buildRuntime(t)),
				OnOutput: func(port uint16, _ []byte) {
					mu.Lock()
					got = append(got, port)
					mu.Unlock()
				},
			})
			viaChainRules(p.Table())
			p.Start()
			for _, data := range seq {
				if !p.Submit(data, 0) {
					t.Fatal("unexpected backpressure drop")
				}
				p.Drain()
			}
			p.Stop()
			mu.Lock()
			defer mu.Unlock()
			if len(got) != len(want) {
				t.Fatalf("pipeline output %d packets, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("packet %d left on port %d, serial switch says %d (all: %v vs %v)", i, got[i], want[i], got, want)
				}
			}
		})
	}
}

// TestFlowKeyOfAgreesWithDecoder is the key's oracle: whenever flowKeyOf
// calls a packet cacheable, its key holds exactly the match fields
// openflow.ExtractFields reads from the decoded packet. Inputs are valid
// TCP, UDP and ICMP packets with random bytes of their headers
// corrupted and random truncations.
func TestFlowKeyOfAgreesWithDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src, dst := packet.MustParseIPv4("10.0.0.5"), packet.MustParseIPv4("93.184.216.34")
	var bases [][]byte
	for _, proto := range []byte{packet.IPProtoTCP, packet.IPProtoUDP, 1} {
		ip := &packet.IPv4{Src: src, Dst: dst, Protocol: proto}
		var layers []packet.SerializableLayer
		switch proto {
		case packet.IPProtoTCP:
			tcp := &packet.TCP{SrcPort: 40000, DstPort: 80}
			tcp.SetNetworkLayerForChecksum(ip)
			layers = []packet.SerializableLayer{ip, tcp, packet.Payload("GET / HTTP/1.1\r\n\r\n")}
		case packet.IPProtoUDP:
			udp := &packet.UDP{SrcPort: 5353, DstPort: 53}
			udp.SetNetworkLayerForChecksum(ip)
			layers = []packet.SerializableLayer{ip, udp, packet.Payload("query")}
		default:
			layers = []packet.SerializableLayer{ip, packet.Payload("ping")}
		}
		data, err := packet.SerializeToBytes(layers...)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, data)
	}
	cacheable := 0
	for i := 0; i < 20000; i++ {
		data := append([]byte(nil), bases[i%len(bases)]...)
		for k := rng.Intn(3); k > 0; k-- {
			data[rng.Intn(min(len(data), 40))] = byte(rng.Intn(256))
		}
		if rng.Intn(2) == 0 {
			// Keep most corrupted headers decodable: fix the IPv4
			// checksum, so the transport checks are what is exercised.
			if ihl := int(data[0]&0x0f) * 4; ihl >= 20 && ihl <= len(data) {
				data[10], data[11] = 0, 0
				binary.BigEndian.PutUint16(data[10:12], packet.Checksum(data[:ihl]))
			}
		}
		if rng.Intn(3) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		key, ok := flowKeyOf(data, 3)
		if !ok {
			continue
		}
		cacheable++
		f := openflow.ExtractFields(packet.Decode(data, packet.LayerTypeIPv4), 3)
		want := openflow.PacketFields{
			InPort: 3, EthType: packet.EtherTypeIPv4,
			SrcIP: key.flow.Src.Addr, DstIP: key.flow.Dst.Addr, Proto: key.flow.Proto,
			SrcPort: key.flow.Src.Port, DstPort: key.flow.Dst.Port,
		}
		if f != want {
			t.Fatalf("packet % x: cacheable key %+v, decoder fields %+v", data, want, f)
		}
	}
	if cacheable < 2000 {
		t.Fatalf("only %d of 20000 packets cacheable: the oracle exercised too little", cacheable)
	}
}

// TestFlowCacheBounded feeds one shard more distinct flows than the cap:
// the cache never holds more than maxCachedFlows entries, and every
// lookup, cached or not, returns what the rule scan returns.
func TestFlowCacheBounded(t *testing.T) {
	tbl := NewShardedTable()
	viaChainRules(tbl)
	c := newFlowCache()
	scan := func(f openflow.PacketFields) uint16 {
		for _, e := range tbl.Entries() {
			if e.Match.Matches(f) {
				return e.Actions[len(e.Actions)-1].Port
			}
		}
		t.Fatal("rule set has a catch-all; scan cannot miss")
		return 0
	}
	src, dst := packet.MustParseIPv4("10.0.0.5"), packet.MustParseIPv4("93.184.216.34")
	const flows = maxCachedFlows + 5000
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < flows; i++ {
			dport := uint16(80)
			if i%2 == 1 {
				dport = uint16(i)
			}
			key := cacheKey{flow: packet.Flow{Proto: packet.IPProtoTCP,
				Src: packet.Endpoint{Addr: src, Port: uint16(i >> 1)}, Dst: packet.Endpoint{Addr: dst, Port: dport}}}
			f := openflow.PacketFields{EthType: packet.EtherTypeIPv4, SrcIP: src, DstIP: dst,
				Proto: packet.IPProtoTCP, SrcPort: uint16(i >> 1), DstPort: dport}
			actions, _ := tbl.Lookup(c, key, true, f, 40, 0)
			if got, want := actions[len(actions)-1].Port, scan(f); got != want {
				t.Fatalf("pass %d flow %d: port %d, scan says %d", pass, i, got, want)
			}
			if len(c.m) > maxCachedFlows {
				t.Fatalf("cache holds %d flows, cap %d", len(c.m), maxCachedFlows)
			}
		}
	}
}
