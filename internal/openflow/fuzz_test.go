package openflow

import (
	"bytes"
	"testing"
)

// FuzzReadMessage: the controller channel's framing and body decoding
// read bytes from a remote peer. They must never panic or accept a
// frame beyond maxFrame, and every body DecodeBody accepts must survive
// a WriteMessage/ReadMessage round trip with the same type.
func FuzzReadMessage(f *testing.F) {
	for _, m := range []struct {
		t    MsgType
		body any
	}{
		{MsgHello, &Hello{SwitchID: "s1", Version: 1}},
		{MsgFlowMod, &FlowMod{Command: FlowAdd, Priority: 50, Cookie: 7,
			Match:   Match{Fields: FieldDstPort | FieldProto, DstPort: 443, Proto: 6},
			Actions: []Action{ToMiddlebox("u/c"), Output(1)}}},
		{MsgPacketIn, &PacketIn{SwitchID: "s1", InPort: 2, Data: []byte{0x45, 0, 0, 20}}},
		{MsgPacketOut, &PacketOut{Port: 3, Data: []byte{1, 2, 3}}},
		{MsgFlowExpired, &FlowExpired{Cookie: 7, Packets: 3, Bytes: 120}},
		{MsgStatsRequest, &StatsRequest{Cookie: 7}},
		{MsgStatsReply, &StatsReply{Cookie: 7, Packets: 1, Bytes: 2}},
		{MsgError, &ErrorMsg{Code: 1, Reason: "bad"}},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m.t, m.body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 3, 2, '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(body)+1 > maxFrame || len(body)+5 > len(data) {
			t.Fatalf("accepted a %d-byte body from %d input bytes", len(body), len(data))
		}
		var out any
		switch typ {
		case MsgHello:
			out = &Hello{}
		case MsgFlowMod:
			out = &FlowMod{}
		case MsgPacketIn:
			out = &PacketIn{}
		case MsgPacketOut:
			out = &PacketOut{}
		case MsgFlowExpired:
			out = &FlowExpired{}
		case MsgStatsRequest:
			out = &StatsRequest{}
		case MsgStatsReply:
			out = &StatsReply{}
		case MsgError:
			out = &ErrorMsg{}
		default:
			return
		}
		if err := DecodeBody(body, out); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, typ, out); err != nil {
			t.Fatalf("re-encode %T: %v", out, err)
		}
		again, _, err := ReadMessage(&buf)
		if err != nil || again != typ {
			t.Fatalf("round trip of %T: type %d err %v", out, again, err)
		}
	})
}
