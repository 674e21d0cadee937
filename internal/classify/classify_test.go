package classify

import (
	"testing"
	"testing/quick"

	"iotscope/internal/flowtuple"
)

func tcp(flags uint8) flowtuple.Record {
	return flowtuple.Record{Protocol: flowtuple.ProtoTCP, TCPFlags: flags, Packets: 1}
}

func icmp(typ uint8) flowtuple.Record {
	return flowtuple.Record{Protocol: flowtuple.ProtoICMP, SrcPort: uint16(typ), Packets: 1}
}

func TestTCPClasses(t *testing.T) {
	tests := []struct {
		name  string
		flags uint8
		want  Class
	}{
		{"pure SYN", flowtuple.FlagSYN, ScanTCP},
		{"SYN-ACK", flowtuple.FlagSYN | flowtuple.FlagACK, Backscatter},
		{"RST", flowtuple.FlagRST, Backscatter},
		{"RST-ACK", flowtuple.FlagRST | flowtuple.FlagACK, Backscatter},
		{"bare ACK", flowtuple.FlagACK, Other},
		{"FIN", flowtuple.FlagFIN, Other},
		{"NULL", 0, Other},
		{"Xmas", flowtuple.FlagFIN | flowtuple.FlagPSH | flowtuple.FlagURG, Other},
		{"SYN+PSH", flowtuple.FlagSYN | flowtuple.FlagPSH, ScanTCP},
	}
	for _, tc := range tests {
		if got := Record(tcp(tc.flags)); got != tc.want {
			t.Errorf("%s: %v want %v", tc.name, got, tc.want)
		}
	}
}

func TestICMPClasses(t *testing.T) {
	backscatterTypes := []uint8{
		flowtuple.ICMPEchoReply, flowtuple.ICMPDestUnreach,
		flowtuple.ICMPSourceQuench, flowtuple.ICMPRedirect,
		flowtuple.ICMPTimeExceeded, flowtuple.ICMPParamProblem,
		flowtuple.ICMPTimestampReply, flowtuple.ICMPInfoReply,
		flowtuple.ICMPAddrMaskReply,
	}
	for _, typ := range backscatterTypes {
		if got := Record(icmp(typ)); got != Backscatter {
			t.Errorf("ICMP type %d: %v want Backscatter", typ, got)
		}
	}
	if got := Record(icmp(flowtuple.ICMPEchoRequest)); got != ScanICMP {
		t.Errorf("echo request: %v", got)
	}
	// Timestamp request (13) and other query types are unclassified.
	if got := Record(icmp(13)); got != Other {
		t.Errorf("ICMP type 13: %v want Other", got)
	}
}

func TestUDPAndUnknownProtocols(t *testing.T) {
	udp := flowtuple.Record{Protocol: flowtuple.ProtoUDP, DstPort: 53, Packets: 1}
	if got := Record(udp); got != UDP {
		t.Errorf("UDP: %v", got)
	}
	gre := flowtuple.Record{Protocol: 47, Packets: 1}
	if got := Record(gre); got != Other {
		t.Errorf("GRE: %v", got)
	}
}

// allClasses lists every class, in presentation order.
var allClasses = []Class{ScanTCP, ScanICMP, Backscatter, UDP, Other}

func TestClassStringsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range allClasses {
		s := c.String()
		if seen[s] {
			t.Fatalf("duplicate class string %q", s)
		}
		seen[s] = true
	}
	if Class(0).String() == ScanTCP.String() {
		t.Error("zero class aliases a real class")
	}
}

// Property: classification is total and lands in a known class — a
// partition of the record space.
func TestClassificationIsPartition(t *testing.T) {
	valid := make(map[Class]bool)
	for _, c := range allClasses {
		valid[c] = true
	}
	f := func(proto, flags, icmpType uint8) bool {
		rec := flowtuple.Record{
			Protocol: proto,
			TCPFlags: flags,
			SrcPort:  uint16(icmpType),
			Packets:  1,
		}
		return valid[Record(rec)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: SYN-ACK and RST always dominate the scan rule.
func TestBackscatterPriorityProperty(t *testing.T) {
	f := func(extra uint8) bool {
		synack := tcp(flowtuple.FlagSYN | flowtuple.FlagACK | extra)
		rst := tcp(flowtuple.FlagRST | extra)
		return Record(synack) == Backscatter && Record(rst) == Backscatter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClassify(b *testing.B) {
	recs := []flowtuple.Record{
		tcp(flowtuple.FlagSYN),
		tcp(flowtuple.FlagSYN | flowtuple.FlagACK),
		icmp(flowtuple.ICMPEchoRequest),
		{Protocol: flowtuple.ProtoUDP, Packets: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Record(recs[i&3])
	}
}
