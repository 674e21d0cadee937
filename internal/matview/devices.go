package matview

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"iotscope/internal/classify"
)

// Device is the device wire shape served by /v1/devices and
// /v1/devices/{id}. Field order is part of the API contract.
type Device struct {
	ID          int      `json:"id"`
	IP          string   `json:"ip"`
	Category    string   `json:"category"`
	Type        string   `json:"type"`
	Country     string   `json:"country"`
	ISP         string   `json:"isp"`
	Services    []string `json:"services,omitempty"`
	FirstSeen   int      `json:"firstSeenHour"`
	Packets     uint64   `json:"packets"`
	Scanning    uint64   `json:"scanningPackets"`
	Backscatter uint64   `json:"backscatterPackets"`
	UDP         uint64   `json:"udpPackets"`
}

// filterKey addresses one secondary index: the empty string means "no
// filter" on that axis, so {"",""} is the full sorted device list.
type filterKey struct {
	country  string
	category string
}

// buildDeviceIndex materializes the sorted device rows, the ID lookup,
// the per-filter secondary indexes (every country/category combination
// that occurs), and the per-device corroborating intel categories.
func (v *Views) buildDeviceIndex(src Sources) error {
	ids := make([]int, 0, len(src.Result.Devices))
	for id := range src.Result.Devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	v.rows = make([]Device, len(ids))
	v.rowJSON = make([][]byte, len(ids))
	v.byID = make(map[int]int32, len(ids))
	v.threatCats = make([][]string, len(ids))
	v.filters = make(map[filterKey][]int32)
	for i, id := range ids {
		d := src.Inventory.At(id)
		st := src.Result.Devices[id]
		row := Device{
			ID: id, IP: d.IP.String(),
			Category: d.Category.String(), Type: d.Type.String(),
			Country: d.Country, ISP: src.Registry.ISPs[d.ISP].Name,
			Services: d.Services,
		}
		if st != nil {
			row.FirstSeen = st.FirstSeen
			row.Packets = st.TotalPackets()
			row.Scanning = st.Packets[classify.ScanTCP.Index()] + st.Packets[classify.ScanICMP.Index()]
			row.Backscatter = st.Packets[classify.Backscatter.Index()]
			row.UDP = st.Packets[classify.UDP.Index()]
		}
		pos := int32(i)
		v.rows[i] = row
		// Pre-render the row exactly as a "devices" array element of the
		// two-space-indented response: MarshalIndent with the element's
		// line prefix ("    " = envelope + array depth). Page responses
		// are then assembled by concatenation instead of re-encoding.
		rj, err := json.MarshalIndent(row, "    ", "  ")
		if err != nil {
			return fmt.Errorf("matview: encode device %d: %w", id, err)
		}
		v.rowJSON[i] = rj
		v.byID[id] = pos

		cats := []string{}
		if src.Threat != nil {
			for _, c := range src.Threat.CategoriesOf(d.IP) {
				cats = append(cats, c.String())
			}
		}
		v.threatCats[i] = cats

		// ids are ascending, so every filter list is born sorted.
		for _, k := range []filterKey{
			{"", ""},
			{row.Country, ""},
			{"", row.Category},
			{row.Country, row.Category},
		} {
			v.filters[k] = append(v.filters[k], pos)
		}
	}
	if len(ids) == 0 {
		// The unfiltered list must exist even when nothing was inferred.
		v.filters[filterKey{}] = nil
	}
	return nil
}

// NumDevices reports the number of inferred devices.
func (v *Views) NumDevices() int { return len(v.rows) }

// Device returns the row for one device ID.
func (v *Views) Device(id int) (Device, bool) {
	pos, ok := v.byID[id]
	if !ok {
		return Device{}, false
	}
	return v.rows[pos], true
}

// ThreatCategories returns the corroborating intel categories for one
// inferred device. The second result reports whether the device exists;
// the slice is never nil for an existing device.
func (v *Views) ThreatCategories(id int) ([]string, bool) {
	pos, ok := v.byID[id]
	if !ok {
		return nil, false
	}
	return v.threatCats[pos], true
}

// AppendDeviceSliceBody appends the complete /v1/devices offset-mode
// response body to buf from the pre-encoded rows — byte-identical to
// encoding {"devices": …, "offset": …, "total": …} with a
// two-space-indented json.Encoder, at concatenation cost: rows
// [offset, offset+limit) of the matching devices in ascending-ID order. The
// echoed offset is clamped to total, matching the pre-materialization
// handler, so an offset past the end yields an empty page.
// Appending into a caller-owned (typically pooled) buffer keeps the hot
// list endpoint free of per-request body allocations.
func (v *Views) AppendDeviceSliceBody(buf *bytes.Buffer, country, category string, offset, limit int) {
	ids := v.filters[filterKey{country, category}]
	total := len(ids)
	if offset > total {
		offset = total
	}
	page := ids[offset:]
	if limit >= 0 && len(page) > limit {
		page = page[:limit]
	}
	v.growForPage(buf, len(page))
	buf.WriteString("{\n  \"devices\": ")
	v.appendRowArray(buf, page)
	fmt.Fprintf(buf, ",\n  \"offset\": %d,\n  \"total\": %d\n}\n", offset, total)
}

// AppendDevicesAfterBody appends the complete /v1/devices cursor-mode
// response body ({"devices": …, "nextCursor"?: …, "total": …}) to buf
// from the pre-encoded rows: up to limit matching devices with ID strictly
// greater than afterID. nextCursor is present iff matches remain past the
// page. The position is found by binary search, so resuming deep into a
// large list costs O(log n + page), not O(offset).
func (v *Views) AppendDevicesAfterBody(buf *bytes.Buffer, country, category string, afterID, limit int) {
	ids := v.filters[filterKey{country, category}]
	total := len(ids)
	lo := sort.Search(len(ids), func(i int) bool { return v.rows[ids[i]].ID > afterID })
	page := ids[lo:]
	more := false
	if limit >= 0 && len(page) > limit {
		page = page[:limit]
		more = true
	}
	v.growForPage(buf, len(page))
	buf.WriteString("{\n  \"devices\": ")
	v.appendRowArray(buf, page)
	if more {
		last := v.rows[page[len(page)-1]].ID
		// The cursor alphabet (base64url) needs no JSON escaping.
		fmt.Fprintf(buf, ",\n  \"nextCursor\": %q", EncodeCursor(country, category, last))
	}
	fmt.Fprintf(buf, ",\n  \"total\": %d\n}\n", total)
}

// growForPage pre-sizes the page buffer: envelope plus n rows at the
// first row's size (rows are near-uniform).
func (v *Views) growForPage(buf *bytes.Buffer, n int) {
	size := 96
	if n > 0 && len(v.rowJSON) > 0 {
		size += n * (len(v.rowJSON[0]) + 8)
	}
	buf.Grow(size)
}

// appendRowArray writes the "devices" array value from pre-encoded rows,
// matching json.Encoder's rendering of a non-nil []Device at depth 1.
func (v *Views) appendRowArray(buf *bytes.Buffer, page []int32) {
	if len(page) == 0 {
		buf.WriteString("[]")
		return
	}
	buf.WriteString("[\n")
	for i, pos := range page {
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.WriteString("    ")
		buf.Write(v.rowJSON[pos])
	}
	buf.WriteString("\n  ]")
}
