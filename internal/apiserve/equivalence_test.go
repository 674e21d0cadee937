package apiserve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"

	"iotscope/internal/core"
	"iotscope/internal/notify"
	"iotscope/internal/pipeline"
)

// The equivalence suite: every /v1/* read endpoint must produce
// byte-identical JSON bodies from the materialized views and from the
// legacy per-request handlers (legacy_test.go), across a grid of
// parameters and under both the strict and lenient analysis configs.
// Caching headers (ETag, Cache-Control) are new and excluded; bodies are
// compared raw.
func TestViewLegacyEquivalence(t *testing.T) {
	dir, err := os.MkdirTemp("", "apiserve-eq-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := core.DefaultConfig(0.004, 707)
	cfg.Hours = 48
	ds, err := core.Generate(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name    string
		lenient bool
	}{{"strict", false}, {"lenient", true}} {
		t.Run(mode.name, func(t *testing.T) {
			mcfg := cfg
			mcfg.Lenient = mode.lenient
			res, err := ds.Analyze(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(ds, res, []string{testToken})
			if err != nil {
				t.Fatal(err)
			}
			legacy := legacyMux(ds, res)

			for _, path := range equivalenceGrid(t, ds, res) {
				t.Run(path, func(t *testing.T) {
					newCode, newBody := rawGet(t, s, path)
					legCode, legBody := rawGetMux(t, legacy, path)
					if newCode != legCode {
						t.Fatalf("status diverged: views %d, legacy %d", newCode, legCode)
					}
					if newCode == http.StatusOK && newBody != legBody {
						t.Fatalf("body diverged (%d bytes vs %d):\nviews:  %s\nlegacy: %s",
							len(newBody), len(legBody), clip(newBody), clip(legBody))
					}
				})
			}
		})
	}
}

// equivalenceGrid builds the request grid from the actual dataset so the
// filter/detail paths exercise real countries, categories, and device IDs
// (plus misses and edge values).
func equivalenceGrid(t *testing.T, ds *core.Dataset, res *core.Results) []string {
	t.Helper()
	if len(res.Correlate.Devices) == 0 {
		t.Fatal("fixture inferred no devices; grid would be vacuous")
	}

	ids := make([]int, 0, len(res.Correlate.Devices))
	countrySet := map[string]bool{}
	catSet := map[string]bool{}
	for id := range res.Correlate.Devices {
		ids = append(ids, id)
		d := ds.Inventory.At(id)
		countrySet[d.Country] = true
		catSet[d.Category.String()] = true
	}
	sort.Ints(ids)
	countries := sortedKeys(countrySet)
	cats := sortedKeys(catSet)

	// A device the inventory knows but inference did not flag (404 path).
	missing := -1
	inferred := res.Correlate.Devices
	for id := 0; id < ds.Inventory.Len(); id++ {
		if _, ok := inferred[id]; !ok {
			missing = id
			break
		}
	}

	grid := []string{
		"/v1/summary",
		"/v1/ports/tcp",
		"/v1/signatures",
		"/v1/campaigns",
		"/v1/malware",
		"/v1/reports",
		"/v1/reports?minDevices=2",
		"/v1/reports?minDevices=3",
		"/v1/reports?minDevices=1000000",
		"/v1/reports?minDevices=0",   // 400 both sides
		"/v1/reports?minDevices=abc", // 400 both sides
		"/v1/ports/udp",
		"/v1/ports/udp?n=1",
		"/v1/ports/udp?n=5",
		"/v1/ports/udp?n=1000",
		"/v1/ports/udp?n=0",    // 400
		"/v1/ports/udp?n=1001", // 400
		"/v1/spikes",
		"/v1/spikes?threshold=1.5",
		"/v1/spikes?threshold=2.5",
		"/v1/spikes?threshold=100",
		"/v1/spikes?threshold=0.5", // 400
		"/v1/devices",
		"/v1/devices?limit=1",
		"/v1/devices?limit=1000",
		"/v1/devices?limit=7&offset=3",
		"/v1/devices?offset=1000000",  // clamped echo
		"/v1/devices?limit=0",         // 400
		"/v1/devices?limit=1001",      // 400
		"/v1/devices?offset=-1",       // 400
		"/v1/devices?limit=abc",       // 400
		"/v1/devices?country=ZZ",      // empty result, total 0
		"/v1/devices?category=router", // 400: not a category in this model
		"/v1/devices/999999999",       // 404
		"/v1/devices/abc",             // 400
		"/v1/threats/not-an-ip",       // 400
		"/v1/threats/203.0.113.7",     // almost surely no events
	}
	grid = append(grid, reportFloorPaths(ds, res)...)
	for _, c := range countries {
		grid = append(grid, "/v1/devices?country="+c)
		grid = append(grid, "/v1/devices?country="+c+"&limit=3&offset=2")
		for _, cat := range cats {
			grid = append(grid, "/v1/devices?country="+c+"&category="+cat)
		}
	}
	for _, cat := range cats {
		grid = append(grid, "/v1/devices?category="+cat)
	}
	// Device detail: a spread of real IDs plus the not-inferred one.
	for i := 0; i < len(ids); i += max(1, len(ids)/10) {
		grid = append(grid, fmt.Sprintf("/v1/devices/%d", ids[i]))
		// Threat lookups against real device IPs hit populated intel paths.
		grid = append(grid, "/v1/threats/"+ds.Inventory.At(ids[i]).IP.String())
	}
	if missing >= 0 {
		grid = append(grid, fmt.Sprintf("/v1/devices/%d", missing))
	}
	return grid
}

// reportFloorPaths asks /v1/reports at every boundary the data has: for
// each distinct bundle device count c, minDevices=c (the last floor that
// keeps those bundles) and c+1 (the first that drops them), plus 1, one
// past the largest bundle, and MaxInt. Floors the fixed rows above already
// ask are skipped.
func reportFloorPaths(ds *core.Dataset, res *core.Results) []string {
	bundles := notify.BuildBundles(notify.Sources{Result: res.Correlate, Inventory: ds.Inventory, Registry: ds.Registry},
		notify.DefaultConfig())
	seen := map[int]bool{2: true, 3: true, 1000000: true}
	var paths []string
	add := func(floor int) {
		if !seen[floor] {
			seen[floor] = true
			paths = append(paths, fmt.Sprintf("/v1/reports?minDevices=%d", floor))
		}
	}
	add(1)
	for _, b := range bundles { // descending device count: max+1 comes first
		add(len(b.Devices) + 1)
		add(len(b.Devices))
	}
	add(math.MaxInt)
	return paths
}

// With nothing inferred the reports array is empty, not null, at every
// floor — the constant body, held to the legacy handler like the rest.
func TestReportsEquivalenceNoDevices(t *testing.T) {
	loadServer(t) // for the shared dataset
	cfg := core.DefaultConfig(0.004, 303)
	inc, err := srvDS.NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty := inc.Result()
	if len(empty.Devices) != 0 {
		t.Fatalf("a correlator that ingested nothing inferred %d devices", len(empty.Devices))
	}
	// The production path from a correlation result to servable views: the
	// downstream stages, materialize last.
	res := &core.Results{Correlate: empty}
	if _, err := pipeline.New("downstream", srvDS.DownstreamStages(cfg, res)...).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := New(srvDS, res, []string{testToken})
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyMux(srvDS, res)
	for _, path := range []string{"/v1/reports", "/v1/reports?minDevices=1", "/v1/reports?minDevices=2"} {
		code, body := rawGet(t, s, path)
		legCode, legBody := rawGetMux(t, legacy, path)
		if code != http.StatusOK || legCode != http.StatusOK || body != legBody {
			t.Fatalf("%s: views %d %q, legacy %d %q", path, code, body, legCode, legBody)
		}
		if body != "{\n  \"reports\": []\n}\n" {
			t.Fatalf("%s: body %q, want an empty reports array", path, body)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "…"
	}
	return s
}

// rawGet performs an authorized GET against the full server and returns
// the raw body.
func rawGet(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+testToken)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// rawGetMux performs a GET against the legacy oracle mux (no auth layer).
func rawGetMux(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// Cursor pagination is new (the legacy handlers never had it), so it is
// pinned against the offset path instead: walking the cursor chain must
// visit exactly the devices offset paging yields, in order, with a stable
// total.
func TestCursorWalkMatchesOffsetPaging(t *testing.T) {
	s := loadServer(t)

	for _, filter := range []string{"", "&country=ZZ"} {
		want := collectOffsetDevices(t, s, filter)

		var got []string
		cursor := "start"
		pages := 0
		for cursor != "" {
			code, body := rawGetJSON(t, s, "/v1/devices?limit=7&cursor="+cursor+filter)
			if code != http.StatusOK {
				t.Fatalf("cursor page %d: status %d", pages, code)
			}
			for _, d := range body["devices"].([]any) {
				got = append(got, d.(map[string]any)["ip"].(string))
			}
			if int(body["total"].(float64)) != len(want) {
				t.Fatalf("cursor page %d total %v, want %d", pages, body["total"], len(want))
			}
			cursor, _ = body["nextCursor"].(string)
			pages++
			if pages > 10000 {
				t.Fatal("cursor chain does not terminate")
			}
		}
		if len(got) != len(want) {
			t.Fatalf("cursor walk (filter %q) visited %d devices, offset paging %d", filter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("device %d diverged: cursor %s, offset %s", i, got[i], want[i])
			}
		}
	}
}

func collectOffsetDevices(t *testing.T, s *Server, filter string) []string {
	t.Helper()
	var out []string
	for offset := 0; ; {
		code, body := rawGetJSON(t, s, fmt.Sprintf("/v1/devices?limit=7&offset=%d%s", offset, filter))
		if code != http.StatusOK {
			t.Fatalf("offset %d: status %d", offset, code)
		}
		devs := body["devices"].([]any)
		if len(devs) == 0 {
			return out
		}
		for _, d := range devs {
			out = append(out, d.(map[string]any)["ip"].(string))
		}
		offset += len(devs)
	}
}

func rawGetJSON(t *testing.T, s *Server, path string) (int, map[string]any) {
	t.Helper()
	return get(t, s, path, testToken)
}
