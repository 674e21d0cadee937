// Package flowtuple implements the telescope's on-disk traffic
// representation: the "flowtuple" record and the compressed hourly files the
// paper's pipeline consumes (Sec. III-A2).
//
// A flowtuple aggregates the one-way packets of a flow seen at the darknet
// during one hour: source/destination addresses and ports, protocol, TTL,
// TCP flags, IP length, and the number of packets. Following the Corsaro
// convention, ICMP traffic stores its type and code in the port fields.
// A dataset is a directory of gzip-compressed hourly files
// (hour-000.ft.gz ... hour-142.ft.gz for the paper's 143-hour window).
package flowtuple

import "fmt"

// IP protocol numbers used by the telescope.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// TCP flag bits (RFC 793 order, low bit = FIN).
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// ICMP types relevant to backscatter classification (Sec. IV-B).
const (
	ICMPEchoReply      uint8 = 0
	ICMPDestUnreach    uint8 = 3
	ICMPSourceQuench   uint8 = 4
	ICMPRedirect       uint8 = 5
	ICMPEchoRequest    uint8 = 8
	ICMPTimeExceeded   uint8 = 11
	ICMPParamProblem   uint8 = 12
	ICMPTimestampReply uint8 = 14
	ICMPInfoReply      uint8 = 16
	ICMPAddrMaskReply  uint8 = 18
)

// Record is one flowtuple. The zero value is a valid (empty) record.
type Record struct {
	SrcIP    uint32 // source address, host byte order
	DstIP    uint32 // destination (darknet) address
	SrcPort  uint16 // ICMP: type
	DstPort  uint16 // ICMP: code
	Protocol uint8
	TTL      uint8
	TCPFlags uint8  // zero for non-TCP
	IPLen    uint16 // IP datagram length of the representative packet
	Packets  uint32 // packets aggregated into this tuple
}

// ICMPType returns the ICMP type for ICMP records.
func (r Record) ICMPType() uint8 { return uint8(r.SrcPort) }

// ProtoName returns a short protocol mnemonic.
func ProtoName(p uint8) string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto-%d", p)
	}
}

// String renders the record for diagnostics and flowcat output.
func (r Record) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d ttl=%d flags=%#02x len=%d pkts=%d",
		ProtoName(r.Protocol),
		ipString(r.SrcIP), r.SrcPort,
		ipString(r.DstIP), r.DstPort,
		r.TTL, r.TCPFlags, r.IPLen, r.Packets)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24&0xff, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}
