package devicedb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"iotscope/internal/netx"
)

// Inventory is an immutable-after-build device database with an IP index —
// the structure the correlation engine queries once per flowtuple source.
type Inventory struct {
	devices []Device
	byIP    map[netx.Addr]int
}

// NewInventory builds an inventory from devices, validating IP uniqueness.
func NewInventory(devices []Device) (*Inventory, error) {
	inv := &Inventory{
		devices: devices,
		byIP:    make(map[netx.Addr]int, len(devices)),
	}
	for i, d := range devices {
		if prev, dup := inv.byIP[d.IP]; dup {
			return nil, fmt.Errorf("devicedb: devices %d and %d share IP %v", prev, i, d.IP)
		}
		inv.byIP[d.IP] = i
	}
	return inv, nil
}

// Len returns the number of devices.
func (inv *Inventory) Len() int { return len(inv.devices) }

// At returns device i.
func (inv *Inventory) At(i int) Device { return inv.devices[i] }

// LookupIP returns the device index owning addr.
func (inv *Inventory) LookupIP(addr netx.Addr) (int, bool) {
	i, ok := inv.byIP[addr]
	return i, ok
}

// All returns the backing device slice. Callers must not modify it.
func (inv *Inventory) All() []Device { return inv.devices }

// CountByCategory tallies devices per category.
func (inv *Inventory) CountByCategory() map[Category]int {
	out := make(map[Category]int, 2)
	for _, d := range inv.devices {
		out[d.Category]++
	}
	return out
}

// deviceJSON is the JSONL persistence shape; enums are serialized as their
// string forms so files diff and grep cleanly.
type deviceJSON struct {
	ID       int      `json:"id"`
	IP       string   `json:"ip"`
	Category string   `json:"category"`
	Type     string   `json:"type"`
	Country  string   `json:"country"`
	ISP      int      `json:"isp"`
	Services []string `json:"services,omitempty"`
}

// Save writes the inventory as JSON lines.
func (inv *Inventory) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, d := range inv.devices {
		rec := deviceJSON{
			ID:       d.ID,
			IP:       d.IP.String(),
			Category: d.Category.String(),
			Type:     d.Type.String(),
			Country:  d.Country,
			ISP:      d.ISP,
			Services: d.Services,
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("devicedb: encode device %d: %w", d.ID, err)
		}
	}
	return bw.Flush()
}

// Load reads a JSONL inventory.
func Load(r io.Reader) (*Inventory, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	var devices []Device
	for line := 0; ; line++ {
		var rec deviceJSON
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("devicedb: line %d: %w", line+1, err)
		}
		ip, err := netx.ParseAddr(rec.IP)
		if err != nil {
			return nil, fmt.Errorf("devicedb: line %d: %w", line+1, err)
		}
		cat, err := ParseCategory(rec.Category)
		if err != nil {
			return nil, fmt.Errorf("devicedb: line %d: %w", line+1, err)
		}
		typ, err := ParseDeviceType(rec.Type)
		if err != nil {
			return nil, fmt.Errorf("devicedb: line %d: %w", line+1, err)
		}
		devices = append(devices, Device{
			ID:       rec.ID,
			IP:       ip,
			Category: cat,
			Type:     typ,
			Country:  rec.Country,
			ISP:      rec.ISP,
			Services: rec.Services,
		})
	}
	return NewInventory(devices)
}

// LoadFile reads an inventory from path.
func LoadFile(path string) (*Inventory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
