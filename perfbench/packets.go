package main

// The two packet workloads share one world shape: a rule table on an
// openflow.Switch (the inline path) whose entries are copied into a
// dataplane.Pipeline (the sharded path), a template per flow, and a
// seeded schedule saying which template each packet slot sends.

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/trace"
	"pvn/internal/tunnel"

	ds "pvn/internal/deployserver"
)

// pktClass is a template's traffic class; it fixes the verdict the
// packet must get (the correctness oracle).
type pktClass uint8

const (
	clsForward pktClass = iota // plain forwarding, output upstream
	clsHTTP                    // clean HTTP through the chain, output
	clsPII                     // HTTP leaking the subscriber secret: chain drops it
	clsTracker                 // HTTP to a blocked tracker: chain drops it
	clsHTTPS                   // MTU-size HTTPS, forwarded without a chain
	clsTunnel                  // sent to the subscriber's home tunnel
)

func (c pktClass) verdict() openflow.Verdict {
	switch c {
	case clsPII, clsTracker:
		return openflow.VerdictDrop
	case clsTunnel:
		return openflow.VerdictTunnel
	}
	return openflow.VerdictOutput
}

const (
	tcpPSH, tcpACK = 0x08, 0x10

	upstreamPort = 1
	tunnelName   = "home"
	scheduleLen  = 1 << 16
)

type pktTemplate struct {
	frame []byte
	class pktClass
}

type packetWorld struct {
	sw        *openflow.Switch
	rt        *middlebox.Runtime // nil when the workload has no chains
	tunnels   *tunnel.Table      // nil when the workload has no tunnels
	templates []pktTemplate
	schedule  []uint32 // template index for each packet slot, cycled
	// rate is the open-loop offered load in packets per second: a
	// workload constant, never derived from a measured saturation.
	rate float64
	// wraps counts the tunnel verdicts handed to tunnels.Wrap so far.
	wraps int64
}

func (w *packetWorld) tmpl(i int64) *pktTemplate {
	return &w.templates[w.schedule[i%int64(len(w.schedule))]]
}

// fwdRules is the canonical forward-only table (the same five policies
// pvnbench -dataplane uses).
const fwdRules = `
pvnc bench
owner u
device 10.0.0.5
policy 100 match proto=tcp dport=443 action=forward
policy 90 match proto=tcp dport=80 action=forward
policy 80 match dst=203.0.113.0/24 action=forward
policy 70 match proto=udp dport=53 action=forward
policy 0 match any action=forward
`

// fwdSmallRate is fwd-small's open-loop offered load: a fifth of one
// shard's closed-loop capacity on a 2-vCPU host (~2M pkt/s), where a
// single generator still keeps its schedule.
const fwdSmallRate = 400_000

// buildFwdSmall: 40-byte IPv4+TCP frames (no payload) over 1024 flows
// from the device, through the 5-policy forward-only table.
func buildFwdSmall(seed uint64) (*packetWorld, error) {
	rng := rand.New(rand.NewPCG(seed, 0xf0d5))
	sw := openflow.NewSwitch("fwd-edge", nil)
	cfg, err := pvnc.Parse(fwdRules)
	if err != nil {
		return nil, err
	}
	compiled, err := pvnc.Compile(cfg, pvnc.CompileOptions{UpstreamPort: upstreamPort})
	if err != nil {
		return nil, err
	}
	for i := range compiled.FlowMods {
		compiled.FlowMods[i].Apply(sw.Table, 0)
	}

	dev := packet.MustParseIPv4("10.0.0.5")
	dsts := []packet.IPv4Address{
		packet.MustParseIPv4("93.184.216.34"),
		packet.MustParseIPv4("203.0.113.7"),
		packet.MustParseIPv4("198.51.100.20"),
	}
	dports := []uint16{443, 80, 22, 8080}
	w := &packetWorld{sw: sw, rate: fwdSmallRate}
	seen := map[[3]uint16]bool{}
	for len(w.templates) < 1024 {
		k := [3]uint16{uint16(1024 + rng.IntN(60000)), uint16(rng.IntN(len(dsts))), dports[rng.IntN(len(dports))]}
		if seen[k] {
			continue
		}
		seen[k] = true
		ip := &packet.IPv4{Src: dev, Dst: dsts[k[1]], Protocol: packet.IPProtoTCP, TTL: 64}
		tcp := &packet.TCP{SrcPort: k[0], DstPort: k[2], Flags: tcpACK, Window: 65535}
		tcp.SetNetworkLayerForChecksum(ip)
		frame, err := packet.SerializeToBytes(ip, tcp)
		if err != nil {
			return nil, err
		}
		if len(frame) != 40 {
			return nil, fmt.Errorf("fwd-small frame is %d bytes, want 40", len(frame))
		}
		w.templates = append(w.templates, pktTemplate{frame: frame, class: clsForward})
	}
	w.schedule = uniformSchedule(rng, len(w.templates))
	return w, nil
}

// subscriberCfg is the E11-style two-box PVNC plus a tunnel policy.
const subscriberCfg = `
pvnc sub-%d
owner user%d
device %s
middlebox pii pii-detect mode=block secrets=hunter2
middlebox trk tracker-block domains=ads.example
chain secure pii trk
policy 100 match proto=tcp dport=80 via=secure action=forward
policy 70 match proto=tcp dport=993 action=tunnel:home
policy 0 match any action=forward
`

const (
	subscribers = 256
	flowsPerSub = 16
	// subscriberMixRate is the open-loop offered load: about a third of
	// what one shard sustains with this table and chain mix at open-loop
	// batch sizes (the service time is ~10 µs per packet).
	subscriberMixRate = 30_000
)

func subscriberAddr(u int) packet.IPv4Address {
	return packet.IPv4Address{10, byte(1 + u/250), byte(u % 250), 5}
}

// freeProvider is a provider that hosts both boxes of the subscriber
// PVNC at no charge.
func freeProvider(name string) *discovery.ProviderPolicy {
	return &discovery.ProviderPolicy{
		Provider: name, DeployServer: name + "-host",
		Standards: []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
		Supported: map[string]int64{"pii-detect": 0, "tracker-block": 0},
	}
}

// buildSubscriberMix deploys 256 subscribers on one edge host (E11's
// memory-bound population: 12 MB each on a 4 GiB host) and generates
// their traffic over 4096 flows.
func buildSubscriberMix(seed uint64) (*packetWorld, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5b5c))
	rootKey, err := pki.GenerateKey(pki.NewDeterministicRand(1))
	if err != nil {
		return nil, err
	}
	root := pki.NewRootCA("R", rootKey, 0, 1<<40)
	// Deploy at time zero, then run traffic an hour later, when every
	// box has long booted.
	var now time.Duration
	clock := func() time.Duration { return now }
	rt := middlebox.NewRuntime(clock)
	rt.MemoryCapBytes = 4 << 30
	mbx.RegisterBuiltins(rt, mbx.Deps{TrustStore: pki.NewTrustStore(root.Cert), NowSeconds: func() int64 { return 0 }})
	sw := openflow.NewSwitch("mix-edge", clock)
	sw.Chains = rt
	srv := ds.New(freeProvider("mix-isp"), sw, rt, clock)
	for u := 0; u < subscribers; u++ {
		resp := srv.HandleDeploy(&discovery.DeployRequest{
			DeviceID:   fmt.Sprintf("sub%d", u),
			PVNCSource: fmt.Sprintf(subscriberCfg, u, u, subscriberAddr(u)),
		})
		if !resp.OK {
			return nil, fmt.Errorf("subscriber %d deploy: %s", u, resp.Reason)
		}
	}
	now = time.Hour
	tbl := tunnel.NewTable(packet.MustParseIPv4("192.0.2.1"))
	tbl.Add(&tunnel.Endpoint{Name: tunnelName, Addr: packet.MustParseIPv4("203.0.113.80"), ExtraRTT: 20 * time.Millisecond, Trusted: true})

	w := &packetWorld{sw: sw, rt: rt, tunnels: tbl, rate: subscriberMixRate}
	web := packet.MustParseIPv4("93.184.216.34")
	for u := 0; u < subscribers; u++ {
		src := subscriberAddr(u)
		for f := 0; f < flowsPerSub; f++ {
			sport := uint16(20000 + u*flowsPerSub + f)
			var frame []byte
			var cls pktClass
			switch r := rng.Float64(); {
			case r < 0.03:
				cls = clsPII
				frame, err = trace.HTTPRequestPacket(src, web, sport, "api.example", "/login", "user=u&password=hunter2")
			case r < 0.06:
				cls = clsTracker
				frame, err = trace.HTTPRequestPacket(src, web, sport, "ads.example", "/pixel", "")
			case r < 0.60:
				cls = clsHTTP
				frame, err = trace.HTTPRequestPacket(src, web, sport, "news.example", fmt.Sprintf("/article/%d", rng.IntN(1000)), "")
			case r < 0.90:
				cls = clsHTTPS
				frame, err = bulkFrame(src, web, sport, 443)
			default:
				cls = clsTunnel
				frame, err = bulkFrame(src, web, sport, 993)
			}
			if err != nil {
				return nil, err
			}
			w.templates = append(w.templates, pktTemplate{frame: frame, class: cls})
		}
	}
	w.schedule = uniformSchedule(rng, len(w.templates))
	return w, nil
}

// bulkFrame builds an MTU-size (1500-byte) TCP segment carrying one TLS
// application-data record.
func bulkFrame(src, dst packet.IPv4Address, sport, dport uint16) ([]byte, error) {
	body := make([]byte, 1500-40)
	body[0], body[1], body[2] = 0x17, 0x03, 0x03
	binary.BigEndian.PutUint16(body[3:], uint16(len(body)-5))
	ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP, TTL: 64}
	tcp := &packet.TCP{SrcPort: sport, DstPort: dport, Flags: tcpACK | tcpPSH, Window: 65535}
	tcp.SetNetworkLayerForChecksum(ip)
	return packet.SerializeToBytes(ip, tcp, packet.Payload(body))
}

func uniformSchedule(rng *rand.Rand, n int) []uint32 {
	s := make([]uint32, scheduleLen)
	for i := range s {
		s[i] = uint32(rng.IntN(n))
	}
	return s
}

// setSeq stores v in the TCP sequence number of an IPv4/TCP frame and
// patches the TCP checksum incrementally (RFC 1624), so the frame stays
// valid. The sharded workloads carry the packet index there: no rule,
// flow cache or middlebox reads the sequence number.
func setSeq(f []byte, v uint32) {
	off := int(f[0]&0x0f) * 4
	seq, sum := f[off+4:off+8], f[off+16:off+18]
	acc := uint32(^binary.BigEndian.Uint16(sum))
	acc += uint32(^binary.BigEndian.Uint16(seq[0:])) + uint32(v>>16)
	acc += uint32(^binary.BigEndian.Uint16(seq[2:])) + uint32(v&0xffff)
	for acc > 0xffff {
		acc = acc&0xffff + acc>>16
	}
	binary.BigEndian.PutUint16(sum, ^uint16(acc))
	binary.BigEndian.PutUint32(seq, v)
}

func getSeq(f []byte) uint32 {
	off := int(f[0]&0x0f) * 4
	return binary.BigEndian.Uint32(f[off+4:])
}
