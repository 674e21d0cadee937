package apiserve

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"iotscope/internal/core"
)

var (
	srvOnce sync.Once
	srvErr  error
	srv     *Server
	srvDS   *core.Dataset
	srvRes  *core.Results
)

const testToken = "test-token-123"

func loadServer(t testing.TB) *Server {
	t.Helper()
	srvOnce.Do(func() {
		dir, err := os.MkdirTemp("", "apiserve-*")
		if err != nil {
			srvErr = err
			return
		}
		defer os.RemoveAll(dir)
		cfg := core.DefaultConfig(0.004, 303)
		cfg.Hours = 48
		srvDS, srvErr = core.Generate(cfg, dir)
		if srvErr != nil {
			return
		}
		srvRes, srvErr = srvDS.Analyze(cfg)
		if srvErr != nil {
			return
		}
		srv, srvErr = New(srvDS, srvRes, []string{testToken})
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

// get performs an authorized GET and decodes the JSON body.
func get(t *testing.T, s *Server, path string, token string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: bad JSON: %v (%q)", path, err, rec.Body.String())
	}
	return rec.Code, body
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, []string{"x"}); err == nil {
		t.Error("nil dataset accepted")
	}
	s := loadServer(t)
	_ = s
	if _, err := New(srvDS, srvRes, nil); err == nil {
		t.Error("no tokens accepted")
	}
	if _, err := New(srvDS, srvRes, []string{""}); err == nil {
		t.Error("empty token accepted")
	}
}

// Swap serves views and builds none: Results without them are rejected,
// and the snapshot already installed keeps its generation and keeps
// answering.
func TestSwapRejectsResultsWithoutViews(t *testing.T) {
	loadServer(t)
	s, err := New(srvDS, srvRes, []string{testToken})
	if err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	if _, err := s.Swap(srvDS, &core.Results{Correlate: srvRes.Correlate, Analyzer: srvRes.Analyzer}); err == nil {
		t.Fatal("results without views swapped in")
	}
	if got := s.Generation(); got != gen {
		t.Fatalf("rejected swap moved the generation %d -> %d", gen, got)
	}
	if code, body := get(t, s, "/v1/summary", testToken); code != http.StatusOK || body["summary"] == nil {
		t.Fatalf("previous snapshot stopped answering /v1/summary: %d %v", code, body)
	}
}

func TestHealthUnauthenticated(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health: %d %v", code, body)
	}
	// Ingestion health rides on the liveness payload: a clean analysis
	// reports every hour OK and nothing quarantined.
	ingest, ok := body["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("health payload lacks ingest stats: %v", body)
	}
	if ingest["hoursOk"].(float64) != float64(srvDS.Scenario.Hours) {
		t.Fatalf("ingest hoursOk %v, want %d", ingest["hoursOk"], srvDS.Scenario.Hours)
	}
	if ingest["hoursQuarantined"].(float64) != 0 {
		t.Fatalf("clean dataset reports quarantined hours: %v", ingest)
	}
}

// One poisoned request must not take the server down, and the next request
// must still be served.
func TestPanicRecovery(t *testing.T) {
	s := loadServer(t)
	log.SetOutput(io.Discard) // the recovered stack is expected noise here
	defer log.SetOutput(os.Stderr)
	s.mux.HandleFunc("GET /v1/panic-test", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	code, body := get(t, s, "/v1/panic-test", "")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d %v", code, body)
	}
	if body["error"] == "" {
		t.Fatalf("panic response lacks error body: %v", body)
	}
	if code, _ := get(t, s, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("server unhealthy after recovered panic: %d", code)
	}
}

func TestAuthRequired(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/v1/summary", "")
	if code != http.StatusUnauthorized {
		t.Fatalf("no token: %d %v", code, body)
	}
	code, _ = get(t, s, "/v1/summary", "wrong-token")
	if code != http.StatusUnauthorized {
		t.Fatalf("bad token: %d", code)
	}
	code, _ = get(t, s, "/v1/summary", testToken)
	if code != http.StatusOK {
		t.Fatalf("good token: %d", code)
	}
}

func TestSummary(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/v1/summary", testToken)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	summary, ok := body["summary"].(map[string]any)
	if !ok || summary["Total"].(float64) <= 0 {
		t.Fatalf("summary %v", body)
	}
}

func TestDevicesListAndFilters(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/v1/devices?limit=5", testToken)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	devices := body["devices"].([]any)
	if len(devices) != 5 {
		t.Fatalf("devices %d", len(devices))
	}
	total := int(body["total"].(float64))
	if total <= 5 {
		t.Fatalf("total %d", total)
	}

	// Country filter returns only that country.
	code, body = get(t, s, "/v1/devices?country=RU&limit=100", testToken)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	for _, d := range body["devices"].([]any) {
		if d.(map[string]any)["country"] != "RU" {
			t.Fatalf("country filter leak: %v", d)
		}
	}

	// Category filter.
	code, body = get(t, s, "/v1/devices?category=cps&limit=100", testToken)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	for _, d := range body["devices"].([]any) {
		if d.(map[string]any)["category"] != "cps" {
			t.Fatalf("category filter leak: %v", d)
		}
	}

	// Pagination offset.
	_, page1 := get(t, s, "/v1/devices?limit=3&offset=0", testToken)
	_, page2 := get(t, s, "/v1/devices?limit=3&offset=3", testToken)
	id1 := page1["devices"].([]any)[0].(map[string]any)["id"]
	id2 := page2["devices"].([]any)[0].(map[string]any)["id"]
	if id1 == id2 {
		t.Fatal("pagination returned the same page")
	}

	// Validation errors.
	if code, _ := get(t, s, "/v1/devices?limit=0", testToken); code != http.StatusBadRequest {
		t.Fatalf("limit 0 accepted: %d", code)
	}
	if code, _ := get(t, s, "/v1/devices?category=weird", testToken); code != http.StatusBadRequest {
		t.Fatalf("bad category accepted: %d", code)
	}
}

func TestDeviceDetail(t *testing.T) {
	s := loadServer(t)
	// Find an inferred device ID.
	var id int
	for did := range srvRes.Correlate.Devices {
		id = did
		break
	}
	code, body := get(t, s, "/v1/devices/"+itoa(id), testToken)
	if code != http.StatusOK {
		t.Fatalf("code %d %v", code, body)
	}
	dev := body["device"].(map[string]any)
	if int(dev["id"].(float64)) != id || dev["packets"].(float64) <= 0 {
		t.Fatalf("device %v", dev)
	}
	if code, _ := get(t, s, "/v1/devices/99999999", testToken); code != http.StatusNotFound {
		t.Fatalf("phantom device: %d", code)
	}
	if code, _ := get(t, s, "/v1/devices/abc", testToken); code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", code)
	}
}

func TestThreats(t *testing.T) {
	s := loadServer(t)
	// Find a flagged device.
	if len(srvRes.Threat.Flagged) == 0 {
		t.Skip("no flagged devices at this scale/seed")
	}
	id := srvRes.Threat.Flagged[0].Device
	ip := srvDS.Inventory.At(id).IP.String()
	code, body := get(t, s, "/v1/threats/"+ip, testToken)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if len(body["events"].([]any)) == 0 {
		t.Fatalf("no events for flagged IP %s", ip)
	}
	if code, _ := get(t, s, "/v1/threats/999.1.1.1", testToken); code != http.StatusBadRequest {
		t.Fatalf("bad IP accepted: %d", code)
	}
	// Unknown IP: empty list, not an error.
	code, body = get(t, s, "/v1/threats/1.2.3.4", testToken)
	if code != http.StatusOK || len(body["events"].([]any)) != 0 {
		t.Fatalf("unknown IP: %d %v", code, body)
	}
}

func TestSpikes(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/v1/spikes", testToken)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	spikes := body["spikes"].([]any)
	if len(spikes) == 0 {
		t.Fatal("no spikes detected (scripted events should be present)")
	}
	first := spikes[0].(map[string]any)
	if first["victimShare"].(float64) <= 0 {
		t.Fatalf("spike %v", first)
	}
	for _, bad := range []string{"0.5", "Inf", "infinity"} {
		if code, _ := get(t, s, "/v1/spikes?threshold="+bad, testToken); code != http.StatusBadRequest {
			t.Fatalf("threshold %s: %d, want 400", bad, code)
		}
	}
}

func TestPortsAndSignatures(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/v1/ports/tcp", testToken)
	if code != http.StatusOK || len(body["services"].([]any)) != 14 {
		t.Fatalf("tcp ports: %d %v", code, body["services"])
	}
	code, body = get(t, s, "/v1/ports/udp?n=5", testToken)
	if code != http.StatusOK || len(body["ports"].([]any)) != 5 {
		t.Fatalf("udp ports: %d", code)
	}
	code, body = get(t, s, "/v1/signatures", testToken)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	sigs := body["signatures"].([]any)
	if len(sigs) < 10 {
		t.Fatalf("signatures %d", len(sigs))
	}
	names := map[string]bool{}
	for _, sig := range sigs {
		names[sig.(map[string]any)["name"].(string)] = true
	}
	if !names["Telnet"] || !names["udp-37547"] {
		t.Fatalf("expected signatures missing: %v", names)
	}
}

func TestCampaignsAndMalware(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/v1/campaigns", testToken)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if len(body["campaigns"].([]any)) == 0 {
		t.Fatal("no campaigns")
	}
	code, body = get(t, s, "/v1/malware", testToken)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if len(body["hashes"].([]any)) == 0 || len(body["families"].([]any)) == 0 {
		t.Fatalf("malware empty: %v", body)
	}
}

func TestReports(t *testing.T) {
	s := loadServer(t)
	code, body := get(t, s, "/v1/reports", testToken)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	reports := body["reports"].([]any)
	if len(reports) == 0 {
		t.Fatal("no abuse reports")
	}
	first := reports[0].(map[string]any)
	if first["isp"] == "" || len(first["devices"].([]any)) == 0 {
		t.Fatalf("report %v", first)
	}
	if code, _ := get(t, s, "/v1/reports?minDevices=0", testToken); code != http.StatusBadRequest {
		t.Fatalf("minDevices 0 accepted: %d", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := loadServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/summary", nil)
	req.Header.Set("Authorization", "Bearer "+testToken)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST allowed: %d", rec.Code)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Provenance rides on the snapshot block of /healthz: a store-loaded
// snapshot names its artifact and codec version, and a recorded store
// fallback degrades health without taking the endpoint down.
func TestHealthSnapshotProvenance(t *testing.T) {
	loadServer(t)
	s, err := New(srvDS, srvRes, []string{testToken})
	if err != nil {
		t.Fatal(err)
	}

	// No provenance reported: the snapshot block keeps its legacy shape.
	_, body := get(t, s, "/healthz", "")
	snap := body["snapshot"].(map[string]any)
	if _, ok := snap["source"]; ok {
		t.Fatalf("source reported without SetProvenance: %v", snap)
	}

	s.SetProvenance(core.Provenance{Source: "store", StorePath: "/data/snap.irs", CodecVersion: 1})
	code, body := get(t, s, "/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("store provenance: %d %v", code, body)
	}
	snap = body["snapshot"].(map[string]any)
	if snap["source"] != "store" || snap["store"] != "/data/snap.irs" || snap["codecVersion"].(float64) != 1 {
		t.Fatalf("snapshot block = %v, want store provenance", snap)
	}

	// A fallback is a promise broken: the server runs, but not from the
	// artifact it was configured with — health must say degraded.
	s.SetProvenance(core.Provenance{Source: "analyze", Fallback: "store corrupt"})
	code, body = get(t, s, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("degraded must still answer 200, got %d", code)
	}
	if body["status"] != "degraded" {
		t.Fatalf("status = %v, want degraded on store fallback", body["status"])
	}
	snap = body["snapshot"].(map[string]any)
	if snap["source"] != "analyze" || snap["storeFallback"] != "store corrupt" {
		t.Fatalf("snapshot block = %v, want fallback provenance", snap)
	}
}
