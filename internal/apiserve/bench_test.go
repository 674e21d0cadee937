package apiserve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// The serve benchmarks drive full requests (auth, admission, handler,
// encoding) through ServeHTTP against the shared fixture.

func benchPaths(b *testing.B) (summary, devicesFilter string) {
	b.Helper()
	s := loadServer(b)
	first := -1
	for id := range srvRes.Correlate.Devices {
		if first < 0 || id < first {
			first = id
		}
	}
	d, ok := s.snap.Load().views.Device(first)
	if !ok {
		b.Fatal("fixture inferred no devices")
	}
	return "/v1/summary", fmt.Sprintf("/v1/devices?country=%s&limit=100", d.Country)
}

func benchServe(b *testing.B, h http.Handler, path string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+testToken)
	// One warm-up request to validate status before timing.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		r.Header.Set("Authorization", "Bearer "+testToken)
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}

func BenchmarkServeSummary(b *testing.B) {
	summary, _ := benchPaths(b)
	benchServe(b, loadServer(b), summary)
}

func BenchmarkServeDevicesFilter(b *testing.B) {
	_, devices := benchPaths(b)
	benchServe(b, loadServer(b), devices)
}

// BenchmarkServeReports is the largest body the API serves, written from
// the snapshot's rendered bytes (docs/PERFORMANCE.md §Read path).
func BenchmarkServeReports(b *testing.B) {
	benchServe(b, loadServer(b), "/v1/reports")
}

// BenchmarkServeHTTPLoad is the end-to-end load benchmark: concurrent
// clients over real TCP against an httptest server wrapping the full
// middleware stack, reporting request throughput and p50/p99 latency.
func BenchmarkServeHTTPLoad(b *testing.B) {
	s := loadServer(b)
	_, devices := benchPaths(b)
	ts := httptest.NewServer(s)
	defer ts.Close()
	paths := []string{"/v1/summary", devices}

	var mu sync.Mutex
	var lat []time.Duration

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		local := make([]time.Duration, 0, 1024)
		for i := 0; pb.Next(); i++ {
			req, err := http.NewRequest(http.MethodGet, ts.URL+paths[i%len(paths)], nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer "+testToken)
			start := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				b.Fatalf("status %d", resp.StatusCode)
			}
			// Drain so the connection is reused instead of redialed.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			local = append(local, time.Since(start))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-µs")
		b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-µs")
	}
}
