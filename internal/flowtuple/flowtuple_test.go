package flowtuple

import (
	"strings"
	"testing"
	"testing/quick"
)

// decode is the batch kernel on one record.
func decode(src []byte) Record {
	var r Record
	decodeInto(&r, src)
	return r
}

func TestRecordICMPAccessors(t *testing.T) {
	r := Record{Protocol: ProtoICMP, SrcPort: uint16(ICMPEchoReply), DstPort: 3}
	if r.ICMPType() != ICMPEchoReply {
		t.Fatalf("type=%d", r.ICMPType())
	}
}

func TestProtoName(t *testing.T) {
	tests := []struct {
		p    uint8
		want string
	}{
		{ProtoTCP, "TCP"}, {ProtoUDP, "UDP"}, {ProtoICMP, "ICMP"}, {47, "proto-47"},
	}
	for _, tc := range tests {
		if got := ProtoName(tc.p); got != tc.want {
			t.Errorf("ProtoName(%d) = %q", tc.p, got)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := Record{
		SrcIP: 0x0a000001, DstIP: 0x2c010203,
		SrcPort: 1234, DstPort: 23,
		Protocol: ProtoTCP, TTL: 64, TCPFlags: FlagSYN, IPLen: 40, Packets: 3,
	}
	s := r.String()
	for _, want := range []string{"TCP", "10.0.0.1:1234", "44.1.2.3:23", "pkts=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := Record{
		SrcIP: 0xdeadbeef, DstIP: 0x2c000001,
		SrcPort: 65535, DstPort: 1,
		Protocol: ProtoUDP, TTL: 255, TCPFlags: 0, IPLen: 1500, Packets: 1 << 30,
	}
	buf := AppendRecord(nil, r)
	if len(buf) != RecordSize {
		t.Fatalf("encoded size %d", len(buf))
	}
	if back := decode(buf); back != r {
		t.Fatalf("round trip %+v != %+v", back, r)
	}
}

func TestAppendRecordReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 2*RecordSize)
	buf = AppendRecord(buf, Record{SrcIP: 1})
	buf = AppendRecord(buf, Record{SrcIP: 2})
	if len(buf) != 2*RecordSize {
		t.Fatalf("len %d", len(buf))
	}
	r0, r1 := decode(buf), decode(buf[RecordSize:])
	if r0.SrcIP != 1 || r1.SrcIP != 2 {
		t.Fatal("append corrupted prior records")
	}
}

// Property: codec round-trips arbitrary records.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP, pkts uint32, sp, dp, iplen uint16, proto, ttl, flags uint8) bool {
		r := Record{
			SrcIP: srcIP, DstIP: dstIP,
			SrcPort: sp, DstPort: dp,
			Protocol: proto, TTL: ttl, TCPFlags: flags,
			IPLen: iplen, Packets: pkts,
		}
		return decode(AppendRecord(nil, r)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendRecord(b *testing.B) {
	r := Record{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Protocol: 6, Packets: 5}
	buf := make([]byte, 0, RecordSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], r)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	buf := AppendRecord(nil, Record{SrcIP: 1, DstIP: 2, Protocol: 6, Packets: 5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decode(buf)
	}
}
