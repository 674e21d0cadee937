package matview

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"iotscope/internal/notify"
)

// The /v1/reports envelope around the rendered bundle elements, as a
// two-space-indented json.Encoder writes {"reports": [...]}.
var (
	reportsHead  = []byte("{\n  \"reports\": [")
	reportsTail  = []byte("\n  ]\n}\n")
	reportsEmpty = []byte("{\n  \"reports\": []\n}\n")
)

// ReportsTable is the /v1/reports answer for every minDevices floor,
// rendered once: the whole MinDevices=1 response in one contiguous body,
// the byte offset just past each bundle's array element, and the bundles
// themselves. notify.BuildBundles sorts by descending device count first,
// so the bundles with at least k devices are always a prefix of the table
// and the answer for k is a prefix of the body plus a constant tail.
type ReportsTable struct {
	body    []byte
	end     []int           // end[i]: offset in body just past bundle i's element
	bundles []notify.Bundle // as rendered; device counts non-increasing
}

// RenderReports renders bundles (in notify.BuildBundles order) exactly as
// the serving layer's encoder would render {"reports": bundles}. It is
// Build's reports step, exported so its price can be measured on its own.
func RenderReports(bundles []notify.Bundle) (ReportsTable, error) {
	if len(bundles) == 0 {
		return ReportsTable{body: reportsEmpty, bundles: bundles}, nil
	}
	t := ReportsTable{end: make([]int, len(bundles)), bundles: bundles}
	var buf bytes.Buffer
	buf.Write(reportsHead)
	for i := range bundles {
		// Marshal then Indent with the element's line prefix is what
		// MarshalIndent(b, "    ", "  ") does (the device rows' rendering),
		// indenting straight into the shared body instead of a copy.
		compact, err := json.Marshal(&bundles[i])
		if err != nil {
			return ReportsTable{}, fmt.Errorf("matview: encode report for %s: %w", bundles[i].ISP, err)
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n    ")
		if err := json.Indent(&buf, compact, "    ", "  "); err != nil {
			return ReportsTable{}, fmt.Errorf("matview: indent report for %s: %w", bundles[i].ISP, err)
		}
		t.end[i] = buf.Len()
	}
	buf.Write(reportsTail)
	t.body = buf.Bytes()
	return t, nil
}

// Body returns the response for a minDevices floor as a head and a tail
// to be written back to back. Both alias the immutable table — callers
// must not mutate them. The tail is nil when the head is the whole answer
// (every bundle qualifies, or none does).
func (t *ReportsTable) Body(minDevices int) (head, tail []byte) {
	n := len(t.Bundles(minDevices))
	switch n {
	case len(t.bundles):
		return t.body, nil
	case 0:
		return reportsEmpty, nil
	}
	return t.body[:t.end[n-1]], reportsTail
}

// Bundles returns the bundles with at least minDevices devices — the ones
// Body renders for that floor, and what notify.BuildBundles returns at
// MinDevices minDevices. The slice aliases the immutable table; callers
// must not mutate it.
func (t *ReportsTable) Bundles(minDevices int) []notify.Bundle {
	n := sort.Search(len(t.bundles), func(i int) bool { return len(t.bundles[i].Devices) < minDevices })
	return t.bundles[:n]
}
