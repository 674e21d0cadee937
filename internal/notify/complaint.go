package notify

import (
	"strconv"
	"strings"
)

// ComplaintMeta carries the delivery-side context a rendered complaint
// embeds: where it is going, how the contact was found, and the suppression
// window the recipient is told about.
type ComplaintMeta struct {
	// Contact is the resolved abuse mailbox.
	Contact string
	// Tier names the resolution tier the contact came from
	// ("registry", "asn", "country").
	Tier string
	// WindowHours is the suppression window now in force for this operator:
	// the complaint tells the recipient when the next report can arrive.
	WindowHours int
	// Repeat marks a follow-up report (the operator was notified before).
	Repeat bool
}

// Complaint is one rendered abuse complaint ready to enqueue.
type Complaint struct {
	Subject string
	Body    string
}

// Complaint sizing: the fixed text with room for the names, and a device
// block with every optional line, both port lists full and two sample
// hashes (most real rows need a quarter of it). A longer complaint grows
// the builder again and is still right.
const (
	complaintBaseBytes   = 1024
	complaintDeviceBytes = 640
)

// RenderComplaint renders the bundle as a deliverable complaint. The body's
// window language follows the escalating-ban wording production abuse desks
// use: the first report opens a 24-hour window, and every further report
// doubles it. Subject and body are written into one builder and share its
// bytes; strings go in raw, as the recipient is to read them. It cannot
// fail: the error is for callers that check one.
func RenderComplaint(b Bundle, meta ComplaintMeta) (Complaint, error) {
	var sb strings.Builder
	sb.Grow(complaintBaseBytes + len(b.Devices)*complaintDeviceBytes)
	if meta.Repeat {
		sb.WriteString("[repeat] ")
	}
	sb.WriteString("[abuse] ")
	writeInt(&sb, int64(len(b.Devices)))
	sb.WriteString(" compromised IoT device(s) in AS")
	writeUint(&sb, uint64(b.ASN))
	sb.WriteString(" (")
	sb.WriteString(b.ISP)
	sb.WriteByte(')')
	subject := sb.Len()

	sb.WriteString("Dear abuse team of ")
	sb.WriteString(b.ISP)
	sb.WriteString(" (AS")
	writeUint(&sb, uint64(b.ASN))
	sb.WriteString(", ")
	sb.WriteString(b.Country)
	sb.WriteString("),\n\n")
	if meta.Repeat {
		sb.WriteString("this is a follow-up report: devices in your address space previously\n" +
			"reported to you continue to emit malicious traffic.")
	} else {
		sb.WriteString("our network telescope observed malicious traffic originating from\n" +
			"IoT devices inside your address space.")
	}
	sb.WriteString(" During the capture window the\n")
	writeInt(&sb, int64(len(b.Devices)))
	sb.WriteString(" device(s) listed below sent ")
	writeUint(&sb, b.Packets)
	sb.WriteString(" unsolicited packets\n(")
	writeUint(&sb, b.Records)
	sb.WriteString(" flows) toward unused (dark) address space.\n\n")

	for i := range b.Devices {
		d := &b.Devices[i]
		sb.WriteString("* ")
		sb.WriteString(d.IP)
		sb.WriteString(" — ")
		sb.WriteString(d.Category)
		sb.WriteByte('/')
		sb.WriteString(d.Type)
		if len(d.Services) > 0 {
			sb.WriteString(" (")
			writeList(&sb, d.Services)
			sb.WriteByte(')')
		}
		sb.WriteString("\n  first seen hour ")
		writeInt(&sb, int64(d.FirstSeen))
		sb.WriteString(", active ")
		writeInt(&sb, int64(d.ActiveDays))
		sb.WriteString(" day(s), ")
		writeUint(&sb, d.Packets)
		sb.WriteString(" packets in ")
		writeUint(&sb, d.Records)
		sb.WriteString(" flows\n  behaviours: ")
		writeList(&sb, d.Behaviours)
		// Optional lines open with their own newline; the block ends in one.
		writePorts(&sb, "\n  udp ports probed: ", d.UDPPorts)
		writePorts(&sb, "\n  tcp ports scanned: ", d.TCPPorts)
		writeOptional(&sb, "\n  corroborated by threat intelligence: ", d.ThreatFlags)
		writeOptional(&sb, "\n  malware families contacting this host: ", d.MalwareFamilies)
		writeOptional(&sb, "\n  sandbox samples: ", d.MalwareHashes)
		sb.WriteByte('\n')
	}

	sb.WriteString("\nPlease investigate and remediate (credential reset / firmware update /\nisolation). ")
	if meta.Repeat {
		sb.WriteString("Because this is a repeat report, the reporting\nwindow has doubled: you")
	} else {
		sb.WriteString("You")
	}
	sb.WriteString(" will not receive another report about these\ndevices for ")
	writeInt(&sb, int64(meta.WindowHours))
	sb.WriteString(" hours unless their behaviour changes.\n\nThis report was addressed via the ")
	sb.WriteString(meta.Tier)
	sb.WriteString(" contact record for your\nnetwork. If ")
	sb.WriteString(meta.Contact)
	sb.WriteString(" is not the right mailbox, please update your\npublished abuse contact.\n")

	s := sb.String()
	return Complaint{Subject: s[:subject], Body: s[subject:]}, nil
}

// writeUint and writeInt write a number in decimal without allocating.
func writeUint(sb *strings.Builder, v uint64) {
	var buf [20]byte
	sb.Write(strconv.AppendUint(buf[:0], v, 10))
}

func writeInt(sb *strings.Builder, v int64) {
	var buf [20]byte
	sb.Write(strconv.AppendInt(buf[:0], v, 10))
}

// writeList writes items as strings.Join(items, ", ") would return them.
func writeList(sb *strings.Builder, items []string) {
	for i, s := range items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(s)
	}
}

// writeOptional and writePorts write label and the items, comma-separated,
// when there are any.
func writeOptional(sb *strings.Builder, label string, items []string) {
	if len(items) > 0 {
		sb.WriteString(label)
		writeList(sb, items)
	}
}

func writePorts(sb *strings.Builder, label string, ports []uint16) {
	if len(ports) > 0 {
		sb.WriteString(label)
		for i, p := range ports {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeUint(sb, uint64(p))
		}
	}
}
