package apiserve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

var etagRe = regexp.MustCompile(`^"g\d+-[0-9a-f]{8}"$`)

// Every view-backed endpoint must carry the snapshot's strong validator
// and honor conditional requests.
func TestETagAndConditionalRequests(t *testing.T) {
	s := loadServer(t)

	paths := []string{
		"/v1/summary", "/v1/devices", "/v1/devices?limit=5",
		"/v1/ports/tcp", "/v1/ports/udp", "/v1/signatures",
		"/v1/campaigns", "/v1/malware", "/v1/reports", "/v1/spikes",
	}
	etag := s.snap.Load().etag
	if !etagRe.MatchString(etag) {
		t.Fatalf("etag %q does not match the documented shape", etag)
	}
	for _, path := range paths {
		rec := doGet(s, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if got := rec.Header().Get("ETag"); got != etag {
			t.Errorf("%s: ETag %q, want %q", path, got, etag)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "private, must-revalidate" {
			t.Errorf("%s: Cache-Control %q", path, cc)
		}

		rec = doGet(s, path, etag)
		if rec.Code != http.StatusNotModified {
			t.Errorf("%s: If-None-Match exact: status %d, want 304", path, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("%s: 304 carries a body (%d bytes)", path, rec.Body.Len())
		}
	}

	// Validator matching forms.
	for _, inm := range []string{"*", `W/` + etag, `"other", ` + etag, ` ` + etag + ` `} {
		if rec := doGet(s, "/v1/summary", inm); rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, rec.Code)
		}
	}
	for _, inm := range []string{`"g999-deadbeef"`, `"other"`, etag[1 : len(etag)-1] /* unquoted */} {
		if rec := doGet(s, "/v1/summary", inm); rec.Code != http.StatusOK {
			t.Errorf("If-None-Match %q: status %d, want 200", inm, rec.Code)
		}
	}

	// Error responses from view endpoints are derived from the same
	// snapshot and carry its validator too.
	rec := doGet(s, "/v1/devices?limit=0", "")
	if rec.Code != http.StatusBadRequest || rec.Header().Get("ETag") != etag {
		t.Errorf("400 response: status %d etag %q", rec.Code, rec.Header().Get("ETag"))
	}
}

// If-None-Match is as large as the client cares to make it (iotserve keeps
// Go's 1 MB header ceiling): a full-size list of tags that do not match
// costs etagMatch no allocation, and the request is answered like any miss.
func TestOversizedIfNoneMatchList(t *testing.T) {
	s := loadServer(t)
	etag := s.snap.Load().etag
	inm := strings.Repeat(`"g999-deadbeef", `, 1<<20/17) + `W/"other"`
	if len(inm) < 1<<20-17 {
		t.Fatalf("list is only %d bytes", len(inm))
	}
	if n := testing.AllocsPerRun(5, func() {
		if etagMatch(inm, etag) {
			t.Fatal("non-matching list matched")
		}
	}); n != 0 {
		t.Errorf("etagMatch allocated %v times on a %d-byte list", n, len(inm))
	}
	if !etagMatch(inm+", "+etag, etag) {
		t.Error("a match after 1 MB of misses was not found")
	}

	rec, want := doGet(s, "/v1/summary", inm), doGet(s, "/v1/summary", "")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) || want.Body.Len() == 0 {
		t.Errorf("status %d with %d of %d body bytes, want 200 and the full body", rec.Code, rec.Body.Len(), want.Body.Len())
	}
}

// A swap mints a new generation (new ETag) even for identical analyzed
// state; the digest half stays put so restarted peers still cross-validate.
func TestETagChangesAcrossSwap(t *testing.T) {
	s, err := New(srvDS, srvRes, []string{testToken})
	if err != nil {
		t.Fatal(err)
	}
	before := s.snap.Load().etag
	if _, err := s.Swap(srvDS, srvRes); err != nil {
		t.Fatal(err)
	}
	after := s.snap.Load().etag
	if before == after {
		t.Fatalf("swap did not change the etag: %q", before)
	}
	wantSuffix := fmt.Sprintf("-%08x\"", srvRes.Views.Digest())
	for _, e := range []string{before, after} {
		if len(e) < len(wantSuffix) || e[len(e)-len(wantSuffix):] != wantSuffix {
			t.Errorf("etag %q does not end with digest %q", e, wantSuffix)
		}
	}

	// A stale validator from the previous generation revalidates as a miss.
	if rec := doGet(s, "/v1/summary", before); rec.Code != http.StatusOK {
		t.Errorf("stale etag got %d, want 200", rec.Code)
	}
}

func TestDebugVarsAndHandler(t *testing.T) {
	s, err := New(srvDS, srvRes, []string{testToken})
	if err != nil {
		t.Fatal(err)
	}
	loadServer(t)

	// Drive some traffic so the counters move: 2 requests, 1 revalidation.
	doGet(s, "/v1/summary", "")
	doGet(s, "/v1/summary", s.snap.Load().etag)

	v := s.Vars()
	if v.Generation != 1 || v.ETag != s.snap.Load().etag {
		t.Fatalf("vars identity: %+v", v)
	}
	if v.Requests != 2 || v.NotModified != 1 || v.NotModifiedRatio != 0.5 {
		t.Fatalf("vars counters: %+v", v)
	}
	if v.MatView.Devices == 0 || v.MatView.StaticBytes == 0 || v.MatView.Digest == "" {
		t.Fatalf("matview stats empty: %+v", v.MatView)
	}

	// The debug mux is separate from the API mux: /debug/vars serves JSON
	// without auth, and pprof answers.
	h := s.DebugHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("/debug/vars: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", rec.Code)
	}
	// And the public API mux must NOT expose it.
	apiRec := doGet(loadServer(t), "/debug/vars", "")
	if apiRec.Code == http.StatusOK {
		t.Fatal("/debug/vars reachable through the public API mux")
	}
}

func doGet(s *Server, path, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+testToken)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}
