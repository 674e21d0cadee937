// Package devicedb implements the IoT device inventory that substitutes for
// the paper's Shodan dataset (Sec. III-A1): ~331 K Internet-facing IoT
// devices across consumer and CPS realms, with country, ISP, device-type,
// and service metadata. The generator plants the paper's published marginal
// distributions; the correlation pipeline consumes only the same fields the
// paper obtained from Shodan.
package devicedb

import (
	"fmt"

	"iotscope/internal/netx"
)

// Category splits the inventory into the paper's two realms.
type Category uint8

const (
	// Consumer covers routers, IP cameras, printers, storage, DVRs, hubs.
	Consumer Category = iota + 1
	// CPS covers industrial/control-system devices (PLC, RTU, SCADA, ...).
	CPS
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Consumer:
		return "consumer"
	case CPS:
		return "cps"
	default:
		return fmt.Sprintf("category-%d", uint8(c))
	}
}

// ParseCategory inverts Category.String.
func ParseCategory(s string) (Category, error) {
	switch s {
	case "consumer":
		return Consumer, nil
	case "cps":
		return CPS, nil
	default:
		return 0, fmt.Errorf("devicedb: unknown category %q", s)
	}
}

// DeviceType classifies consumer devices (Fig. 3). CPS devices carry
// TypeCPS and are further described by their Services.
type DeviceType uint8

const (
	TypeRouter DeviceType = iota + 1
	TypeIPCamera
	TypePrinter
	TypeStorage
	TypeDVR
	TypeHub
	TypeCPS
)

var typeNames = [...]string{
	TypeRouter:   "router",
	TypeIPCamera: "ip-camera",
	TypePrinter:  "printer",
	TypeStorage:  "network-storage",
	TypeDVR:      "tv-box-dvr",
	TypeHub:      "electric-hub",
	TypeCPS:      "cps",
}

// String implements fmt.Stringer.
func (t DeviceType) String() string {
	if t >= TypeRouter && int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// ParseDeviceType inverts DeviceType.String.
func ParseDeviceType(s string) (DeviceType, error) {
	for t := TypeRouter; int(t) < len(typeNames); t++ {
		if typeNames[t] == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("devicedb: unknown device type %q", s)
}

// ConsumerTypes lists the consumer device types in Fig. 3 order.
func ConsumerTypes() []DeviceType {
	return []DeviceType{TypeRouter, TypeIPCamera, TypePrinter, TypeStorage, TypeDVR, TypeHub}
}

// Device is one inventory entry. IPs are unique within an inventory.
type Device struct {
	ID       int
	IP       netx.Addr
	Category Category
	Type     DeviceType
	Country  string   // country code (geo registry)
	ISP      int      // ISP index (geo registry)
	Services []string // CPS services/protocols; nil for consumer devices
}

// CPSServices lists the paper's Table III protocols first (with their
// common applications) followed by synthetic fillers up to the 31
// industrial protocols Sec. III-A1 reports.
var CPSServices = buildCPSServices()

// CPSService describes one industrial protocol.
type CPSService struct {
	Name        string
	Application string
	// Weight is the deployment share used by the generator, shaped after
	// Table III.
	Weight float64
}

func buildCPSServices() []CPSService {
	named := []CPSService{
		{"Telvent OASyS DNA", "Oil and Gas transportation pipelines and distribution networks", 20.0},
		{"SNC GENe", "Control systems", 18.3},
		{"Niagara Fox", "Building automation systems", 13.4},
		{"MQ Telemetry Transport", "IoT communications, sensory networks, safety-critical communications", 12.9},
		{"Ethernet/IP", "Manufacturing automation", 12.8},
		{"ABB Ranger", "Power generating plants, transmission lines, mining, transportation", 9.1},
		{"Siemens Spectrum PowerTG", "Utility networks", 5.9},
		{"Modbus TCP", "Power utilities", 5.5},
		{"Foxboro/Invensys Foxboro", "Plant automation systems, flowmeters, single-loop controllers", 5.1},
		{"Foundation Fieldbus HSE", "Plant and factory automation", 3.0},
		{"BACnet/IP", "Building automation", 2.2},
	}
	for i := len(named); i < 31; i++ {
		named = append(named, CPSService{
			Name:        fmt.Sprintf("ICS-Proto-%02d", i+1),
			Application: "Synthetic industrial protocol",
			Weight:      1.0,
		})
	}
	return named
}

// CPSServiceIndex returns the index of a service by name, or -1.
func CPSServiceIndex(name string) int {
	for i, s := range CPSServices {
		if s.Name == name {
			return i
		}
	}
	return -1
}
