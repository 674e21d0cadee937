package notify

import (
	"fmt"
	"testing"
)

// fullBundle is an operator with n devices whose rows carry every optional
// line of a complaint: both port lists at the cap and two sample hashes.
func fullBundle(n int) Bundle {
	b := Bundle{ISP: "Example Broadband", ASN: 64512, Country: "NL"}
	for i := 0; i < n; i++ {
		d := DeviceEntry{
			IP:              fmt.Sprintf("198.51.%d.%d", i/250, 1+i%250),
			Category:        "consumer",
			Type:            "ip-camera",
			Services:        []string{"telnet", "http"},
			FirstSeen:       i,
			Packets:         uint64(1000 + i),
			Records:         uint64(100 + i),
			ActiveDays:      3,
			Behaviours:      []string{"tcp-scanning", "udp-probing"},
			ThreatFlags:     []string{"scanner", "botnet-c2"},
			MalwareFamilies: []string{"mirai"},
			MalwareHashes:   []string{fmt.Sprintf("%064x", i), fmt.Sprintf("%064x", i+1)},
		}
		for p := 0; p < MaxPortsPerDevice; p++ {
			d.UDPPorts = append(d.UDPPorts, uint16(1900+p))
			d.TCPPorts = append(d.TCPPorts, uint16(23+p*1000))
		}
		b.Devices = append(b.Devices, d)
		b.Packets += d.Packets
		b.Records += d.Records
	}
	return b
}

// A complaint costs a fixed number of allocations however many devices it
// lists: the body is written into a builder sized once for the bundle.
func TestRenderComplaintAllocsPerCall(t *testing.T) {
	meta := ComplaintMeta{Contact: "abuse@example.net", Tier: "registry", WindowHours: 48, Repeat: true}
	allocs := make(map[int]float64)
	for _, n := range []int{2, 40} {
		b := fullBundle(n)
		allocs[n] = testing.AllocsPerRun(100, func() {
			if _, err := RenderComplaint(b, meta); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[2] != allocs[40] || allocs[2] > 6 {
		t.Errorf("RenderComplaint allocates %v times for 2 devices and %v for 40; want equal and at most 6", allocs[2], allocs[40])
	}
}
