// Package classify implements the paper's darknet traffic taxonomy
// (Sec. IV): every flowtuple is assigned to exactly one class — TCP
// scanning (SYN probes), ICMP scanning (echo requests), backscatter (the
// reply packets DoS victims spray at the telescope when attacked with
// spoofed sources: TCP SYN-ACK/RST and the ICMP reply types), UDP (left as
// its own category because stateless UDP cannot be split without payload
// inspection, Sec. IV-A), or Other (misconfiguration and unclassifiable
// traffic).
package classify

import (
	"fmt"

	"iotscope/internal/flowtuple"
)

// Class is a traffic category. The zero value is invalid so forgotten
// classifications surface immediately.
type Class uint8

const (
	// ScanTCP is TCP SYN probing (Sec. IV-C: 99.97 % of non-backscatter TCP).
	ScanTCP Class = iota + 1
	// ScanICMP is ICMP echo-request probing ("ping" scans).
	ScanICMP
	// Backscatter is DoS-victim reply traffic (Sec. IV-B).
	Backscatter
	// UDP is all UDP traffic (Sec. IV-A keeps it unsplit).
	UDP
	// Other covers misconfiguration and unclassifiable packets.
	Other
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ScanTCP:
		return "scan-tcp"
	case ScanICMP:
		return "scan-icmp"
	case Backscatter:
		return "backscatter"
	case UDP:
		return "udp"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("class-%d", uint8(c))
	}
}

// NumClasses is the number of traffic classes, for dense per-class arrays.
const NumClasses = 5

// Index returns a dense index in [0, NumClasses) for array-backed counters.
func (c Class) Index() int { return int(c) - 1 }

// backscatterICMPTypes are the ICMP reply types Sec. IV-B enumerates.
var backscatterICMPTypes = map[uint8]bool{
	flowtuple.ICMPEchoReply:      true,
	flowtuple.ICMPDestUnreach:    true,
	flowtuple.ICMPSourceQuench:   true,
	flowtuple.ICMPRedirect:       true,
	flowtuple.ICMPTimeExceeded:   true,
	flowtuple.ICMPParamProblem:   true,
	flowtuple.ICMPTimestampReply: true,
	flowtuple.ICMPInfoReply:      true,
	flowtuple.ICMPAddrMaskReply:  true,
}

// Record assigns the record's traffic class.
func Record(rec flowtuple.Record) Class {
	switch rec.Protocol {
	case flowtuple.ProtoTCP:
		return classifyTCP(rec)
	case flowtuple.ProtoICMP:
		return classifyICMP(rec)
	case flowtuple.ProtoUDP:
		return UDP
	default:
		return Other
	}
}

func classifyTCP(rec flowtuple.Record) Class {
	flags := rec.TCPFlags
	// Reply packets from a victim: SYN-ACK or any RST.
	if flags&flowtuple.FlagRST != 0 {
		return Backscatter
	}
	if flags&(flowtuple.FlagSYN|flowtuple.FlagACK) == flowtuple.FlagSYN|flowtuple.FlagACK {
		return Backscatter
	}
	// Probe packets: pure SYN (possibly with stealth-scan companions such
	// as ECN bits which the flowtuple does not retain).
	if flags&flowtuple.FlagSYN != 0 && flags&flowtuple.FlagACK == 0 {
		return ScanTCP
	}
	// ACK floods, FIN/NULL/Xmas probes and leftovers.
	return Other
}

func classifyICMP(rec flowtuple.Record) Class {
	typ := rec.ICMPType()
	if backscatterICMPTypes[typ] {
		return Backscatter
	}
	if typ == flowtuple.ICMPEchoRequest {
		return ScanICMP
	}
	return Other
}
