package apiserve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"iotscope/internal/core"
)

// sliceWriter is a ResponseWriter that keeps the slices it was handed
// instead of copying them, so a test can tell a stored body from a
// per-request one and allocation counts carry nothing of its own that
// grows with the body.
type sliceWriter struct {
	hdr    http.Header
	code   int
	writes [][]byte
}

func newSliceWriter() *sliceWriter {
	return &sliceWriter{hdr: http.Header{}, writes: make([][]byte, 0, 4)}
}

func (w *sliceWriter) Header() http.Header  { return w.hdr }
func (w *sliceWriter) WriteHeader(code int) { w.code = code }
func (w *sliceWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}

// The cost claim as a test: a /v1/reports request allocates the same small
// constant whether the snapshot holds k bundles or more than 4k, at every
// kind of floor (all bundles, an interior prefix, none), and the default
// request hands the wire the view's stored slice — no per-request encode,
// no per-request copy.
func TestReportsCostIsTheAnswer(t *testing.T) {
	big := loadServer(t)
	cfg := core.DefaultConfig(0.0005, 2)
	cfg.Hours = 6
	ds, err := core.Generate(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := New(ds, res, []string{testToken})
	if err != nil {
		t.Fatal(err)
	}
	bigStats, smallStats := big.Current().Views().Stats(), small.Current().Views().Stats()
	if smallStats.Bundles < 2 || bigStats.Bundles < 4*smallStats.Bundles {
		t.Fatalf("fixtures hold %d and %d bundles; want the larger at least 4x the smaller",
			smallStats.Bundles, bigStats.Bundles)
	}
	for _, s := range []*Server{small, big} {
		if _, tail := s.Current().Views().ReportsBody(2); tail == nil {
			t.Fatal("minDevices=2 is not an interior prefix of a fixture; the grid below would skip that path")
		}
	}

	request := func(path string) *http.Request {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Authorization", "Bearer "+testToken)
		return req
	}
	serve := func(s *Server, path string) *sliceWriter {
		w := newSliceWriter()
		s.ServeHTTP(w, request(path))
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.code)
		}
		return w
	}
	allocs := func(s *Server, path string) float64 {
		req := request(path)
		return testing.AllocsPerRun(100, func() {
			s.ServeHTTP(newSliceWriter(), req)
		})
	}
	for _, path := range []string{
		"/v1/reports",
		"/v1/reports?minDevices=2",
		fmt.Sprintf("/v1/reports?minDevices=%d", math.MaxInt),
	} {
		atSmall, atBig := allocs(small, path), allocs(big, path)
		if atSmall != atBig || atBig > 32 {
			t.Errorf("%s: %.0f allocations over %d bundles (%d B), %.0f over %d (%d B); want one small constant",
				path, atSmall, smallStats.Bundles, smallStats.ReportsBytes,
				atBig, bigStats.Bundles, bigStats.ReportsBytes)
		}
	}

	stored, _ := big.Current().Views().ReportsBody(1)
	w := serve(big, "/v1/reports")
	if len(w.writes) != 1 || len(w.writes[0]) != len(stored) || &w.writes[0][0] != &stored[0] {
		t.Fatalf("default request made %d writes; want one write of the view's stored %d-byte body",
			len(w.writes), len(stored))
	}
	// An interior floor is the stored body's prefix plus the constant tail.
	w = serve(big, "/v1/reports?minDevices=2")
	if len(w.writes) != 2 || &w.writes[0][0] != &stored[0] || len(w.writes[0]) >= len(stored) {
		t.Fatalf("minDevices=2 made %d writes; want a prefix of the stored body, then the tail", len(w.writes))
	}
}
