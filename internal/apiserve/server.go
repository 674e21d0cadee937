// Package apiserve implements the authenticated sharing API the paper's
// Discussion commits to ("an authenticated API to share IoT-relevant
// malicious empirical data, IoT-centric attack signatures, and threat
// intelligence derived from passive measurements with the research
// community"). It exposes an analyzed dataset over HTTP/JSON behind bearer
// tokens: inferred devices, threat events, DoS episodes, port tables,
// derived attack signatures, campaigns, and malware indicators.
//
// The server is built for always-on operation: it serves from an
// atomically swapped immutable Snapshot (hot reload without restart or
// request tearing), recovers handler panics, reports lifecycle state on
// /healthz (ok / degraded / draining), and optionally applies admission
// control — a concurrency cap that sheds with 503 + Retry-After, a
// per-token rate limit that rejects with 429 + Retry-After, and a
// per-request context deadline (see internal/resilience).
//
// Every /v1/* read endpoint answers from the snapshot's materialized
// views (internal/matview): aggregates are precomputed once per swap, so
// request cost is O(answer), not O(dataset). Responses carry a strong
// ETag ("g<generation>-<digest>") with If-None-Match revalidation and
// Cache-Control; /v1/devices additionally supports opaque-cursor
// pagination (see docs/API.md).
package apiserve

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/devicedb"
	"iotscope/internal/matview"
	"iotscope/internal/netx"
	"iotscope/internal/pipeline"
	"iotscope/internal/resilience"
)

// Server serves analyzed datasets, one immutable snapshot at a time.
type Server struct {
	snap atomic.Pointer[Snapshot]
	gen  atomic.Uint64

	// tokens holds SHA-256 digests of the configured bearer tokens, so
	// verification compares fixed-size digests and neither timing nor
	// short-circuiting can leak token length or bytes.
	tokens  [][sha256.Size]byte
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in admission-control middleware

	draining   atomic.Bool
	reloadFail atomic.Pointer[reloadFailure]
	// loadRep is the latest snapshot load's per-stage pipeline report
	// (successful or not), served read-only on /v1/pipeline.
	loadRep atomic.Pointer[pipeline.Report]
	// prov is the provenance of the currently served snapshot's analyzed
	// state (result store vs raw analysis); nil when the caller never
	// reported one.
	prov atomic.Pointer[core.Provenance]

	limiter *resilience.Limiter
	rate    *resilience.RateLimiter
	timeout time.Duration
	clock   func() time.Time

	// Serving counters for /debug/vars: total requests through ServeHTTP
	// and conditional requests answered 304 from the client's cache.
	requests    atomic.Uint64
	notModified atomic.Uint64
}

// Option customizes a Server at construction.
type Option func(*Server) error

// WithConcurrencyLimit caps in-flight requests at max; excess requests
// are shed with 503 and a Retry-After of retryAfter. /healthz is exempt.
func WithConcurrencyLimit(max int, retryAfter time.Duration) Option {
	return func(s *Server) error {
		l, err := resilience.NewLimiter(max, retryAfter)
		if err != nil {
			return err
		}
		s.limiter = l
		return nil
	}
}

// WithRateLimit grants each API token rate requests/second with the given
// burst; excess requests are rejected with 429 and Retry-After.
func WithRateLimit(rate float64, burst int) Option {
	return func(s *Server) error {
		rl, err := resilience.NewRateLimiter(rate, burst)
		if err != nil {
			return err
		}
		s.rate = rl
		return nil
	}
}

// WithRequestTimeout propagates a per-request context deadline of d to
// every handler.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) error {
		if d <= 0 {
			return fmt.Errorf("apiserve: request timeout %v must be positive", d)
		}
		s.timeout = d
		return nil
	}
}

// New builds a server over the dataset and its analysis results. At least
// one bearer token is required. Options wire admission control; without
// them the server accepts every authenticated request.
func New(ds *core.Dataset, res *core.Results, tokens []string, opts ...Option) (*Server, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("apiserve: at least one API token is required")
	}
	s := &Server{
		mux:   http.NewServeMux(),
		clock: time.Now,
	}
	for _, t := range tokens {
		if t == "" {
			return nil, fmt.Errorf("apiserve: empty API token")
		}
		s.tokens = append(s.tokens, sha256.Sum256([]byte(t)))
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if _, err := s.Swap(ds, res); err != nil {
		return nil, err
	}
	s.routes()

	var h http.Handler = s.mux
	if s.timeout > 0 {
		h = resilience.WithTimeout(s.timeout, h)
	}
	if s.limiter != nil {
		h = s.limiter.Middleware(h, "/healthz")
	}
	s.handler = h
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/summary", s.auth(s.view((*Snapshot).handleSummary)))
	s.mux.HandleFunc("GET /v1/devices", s.auth(s.view((*Snapshot).handleDevices)))
	s.mux.HandleFunc("GET /v1/devices/{id}", s.auth(s.view((*Snapshot).handleDevice)))
	s.mux.HandleFunc("GET /v1/threats/{ip}", s.auth(s.view((*Snapshot).handleThreats)))
	s.mux.HandleFunc("GET /v1/spikes", s.auth(s.view((*Snapshot).handleSpikes)))
	s.mux.HandleFunc("GET /v1/ports/tcp", s.auth(s.view((*Snapshot).handleTCPPorts)))
	s.mux.HandleFunc("GET /v1/ports/udp", s.auth(s.view((*Snapshot).handleUDPPorts)))
	s.mux.HandleFunc("GET /v1/signatures", s.auth(s.view((*Snapshot).handleSignatures)))
	s.mux.HandleFunc("GET /v1/campaigns", s.auth(s.view((*Snapshot).handleCampaigns)))
	s.mux.HandleFunc("GET /v1/malware", s.auth(s.view((*Snapshot).handleMalware)))
	s.mux.HandleFunc("GET /v1/reports", s.auth(s.view((*Snapshot).handleReports)))
	s.mux.HandleFunc("GET /v1/pipeline", s.auth(s.handlePipeline))
}

// SetLoadReport publishes the per-stage report of the latest snapshot load
// attempt (boot or hot reload, successful or rejected) for /v1/pipeline.
// The report must not be mutated after it is handed over.
func (s *Server) SetLoadReport(rep *pipeline.Report) {
	if rep != nil {
		s.loadRep.Store(rep)
	}
}

// SetProvenance publishes where the served snapshot's analyzed state came
// from (result store artifact vs raw analysis). /healthz reports it inside
// the snapshot block, and a recorded store fallback degrades health: the
// server is up but not serving from the artifact it was told to.
func (s *Server) SetProvenance(p core.Provenance) {
	s.prov.Store(&p)
}

// handlePipeline serves the latest load's pipeline report — how long each
// stage took and which one stopped a rejected reload.
func (s *Server) handlePipeline(w http.ResponseWriter, _ *http.Request) {
	rep := s.loadRep.Load()
	if rep == nil {
		writeError(w, http.StatusNotFound, "no pipeline report recorded")
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// view binds a snapshot-scoped read handler to whatever snapshot is
// current when the request arrives. The handler keeps that snapshot —
// dataset, results, and materialized views — for its whole lifetime, so a
// concurrent Swap can never tear or mix generations within a response.
// The wrapper owns the caching contract: it stamps the snapshot's strong
// ETag and Cache-Control on every response (errors included — they are
// derived from the same snapshot state) and answers a matching
// If-None-Match with 304 before any handler work runs.
func (s *Server) view(h func(*Snapshot, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sn := s.snap.Load()
		hdr := w.Header()
		hdr.Set("ETag", sn.etag)
		hdr.Set("Cache-Control", "private, must-revalidate")
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, sn.etag) {
			s.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h(sn, w, r)
	}
}

// etagMatch implements If-None-Match for a strong validator: "*" matches
// anything, otherwise the comma-separated candidate list is compared
// exactly (a weak W/ prefix is tolerated and stripped — the weak form of
// a strong tag still identifies the same snapshot). The list is walked in
// place and the walk stops at the first match: the header is client-sized
// (up to the server's header ceiling), so nothing here may allocate in
// proportion to it.
func etagMatch(inm, etag string) bool {
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	for more := true; more; {
		var cand string
		cand, inm, more = strings.Cut(inm, ",")
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// ServeHTTP implements http.Handler. A panicking handler is recovered so
// one poisoned request cannot take the sharing API down; the client gets a
// 500 and the stack goes to the server log. http.ErrAbortHandler keeps its
// conventional meaning and is re-raised for the http server to swallow.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		log.Printf("apiserve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
		writeError(w, http.StatusInternalServerError, "internal server error")
	}()
	s.requests.Add(1)
	s.handler.ServeHTTP(w, r)
}

var _ http.Handler = (*Server)(nil)

// auth wraps a handler with bearer-token verification and, when
// configured, the per-token rate limit. Tokens are compared as SHA-256
// digests: every candidate is hashed and compared constant-time against
// every configured digest, so neither a length mismatch nor an early
// match can short-circuit the loop.
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		const prefix = "Bearer "
		h := r.Header.Get("Authorization")
		if len(h) <= len(prefix) || h[:len(prefix)] != prefix {
			writeError(w, http.StatusUnauthorized, "missing bearer token")
			return
		}
		sum := sha256.Sum256([]byte(h[len(prefix):]))
		ok := false
		for _, d := range s.tokens {
			if subtle.ConstantTimeCompare(d[:], sum[:]) == 1 {
				ok = true
			}
		}
		if !ok {
			writeError(w, http.StatusUnauthorized, "invalid token")
			return
		}
		if s.rate != nil {
			key := fmt.Sprintf("%x", sum[:8])
			if allowed, retry := s.rate.Allow(key); !allowed {
				resilience.ShedResponse(w, http.StatusTooManyRequests, retry,
					"rate limit exceeded for token")
				return
			}
		}
		next(w, r)
	}
}

// bufPool recycles encoding buffers across requests so the steady-state
// read path allocates the response value but not the serialization
// scratch. Buffers that grew past a page-cache-friendly ceiling are
// dropped rather than pinned forever.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

// writeJSON encodes v through a pooled buffer and writes it with a
// Content-Length. The wire bytes are exactly what the former
// direct-to-ResponseWriter encoder produced: two-space indent plus the
// encoder's trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		bufPool.Put(buf)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client went away
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// writePooledBody has fill assemble the body into a pooled buffer (the
// matview page builders append pre-encoded rows), then writes it with a
// Content-Length — the no-encoder path for parameterized endpoints.
func writePooledBody(w http.ResponseWriter, status int, fill func(*bytes.Buffer)) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	fill(buf)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client went away
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// writeBody writes a pre-encoded JSON body (a matview static table, or a
// prefix of one followed by its constant tail) — the zero-encoding,
// zero-copy fast path: the parts go to the wire as stored.
func writeBody(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		if len(p) > 0 {
			w.Write(p) //nolint:errcheck // client went away
		}
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// handleHealth reports lifecycle and data health. Status is "draining"
// (with HTTP 503, so load balancers pull the instance) during shutdown,
// "degraded" when the served snapshot was computed from quarantined hours
// or the last reload attempt failed, else "ok". The snapshot block carries
// the generation and load time so operators can verify a reload landed.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	status := "ok"
	code := http.StatusOK
	if snap.res.Correlate.Ingest.HoursQuarantined > 0 {
		status = "degraded"
	}
	snapshot := map[string]any{
		"generation": snap.Generation,
		"loadedAt":   snap.LoadedAt.UTC().Format(time.RFC3339),
	}
	if p := s.prov.Load(); p != nil {
		snapshot["source"] = p.Source
		if p.StorePath != "" {
			snapshot["store"] = p.StorePath
		}
		if p.CodecVersion != 0 {
			snapshot["codecVersion"] = p.CodecVersion
		}
		if p.Fallback != "" {
			status = "degraded"
			snapshot["storeFallback"] = p.Fallback
		}
	}
	body := map[string]any{
		"hours":    snap.ds.Scenario.Hours,
		"scale":    snap.ds.Scenario.Scale,
		"ingest":   snap.res.Correlate.Ingest,
		"snapshot": snapshot,
	}
	if f := s.reloadFail.Load(); f != nil {
		status = "degraded"
		body["lastReloadError"] = map[string]any{
			"error": f.msg,
			"at":    f.at.UTC().Format(time.RFC3339),
		}
	}
	if s.limiter != nil {
		body["admission"] = s.limiter.Stats()
	}
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body["status"] = status
	writeJSON(w, code, body)
}

func (sn *Snapshot) handleSummary(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, sn.views.SummaryBody())
}

// handleDevices pages through the materialized device index. Two
// pagination modes share the filter validation: classic offset paging
// (the original wire contract, byte-identical), and opaque-cursor paging
// (?cursor=start, then follow nextCursor) whose resume cost is a binary
// search instead of an O(offset) skip.
func (sn *Snapshot) handleDevices(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	country := q.Get("country")
	catFilter := q.Get("category")
	if catFilter != "" {
		if _, err := devicedb.ParseCategory(catFilter); err != nil {
			writeError(w, http.StatusBadRequest, "unknown category")
			return
		}
	}
	limit, ok := intParam(w, q.Get("limit"), 100, 1, 1000, "limit must be 1..1000")
	if !ok {
		return
	}

	if cursor := q.Get("cursor"); cursor != "" {
		if q.Get("offset") != "" {
			writeError(w, http.StatusBadRequest, "cursor and offset are mutually exclusive")
			return
		}
		afterID := -1
		if cursor != "start" {
			cCountry, cCat, cAfter, err := matview.DecodeCursor(cursor)
			if err != nil || cCountry != country || cCat != catFilter {
				writeError(w, http.StatusBadRequest, "bad cursor")
				return
			}
			afterID = cAfter
		}
		writePooledBody(w, http.StatusOK, func(buf *bytes.Buffer) {
			sn.views.AppendDevicesAfterBody(buf, country, catFilter, afterID, limit)
		})
		return
	}

	offset, ok := intParam(w, q.Get("offset"), 0, 0, maxInt, "offset must be >= 0")
	if !ok {
		return
	}
	writePooledBody(w, http.StatusOK, func(buf *bytes.Buffer) {
		sn.views.AppendDeviceSliceBody(buf, country, catFilter, offset, limit)
	})
}

func (sn *Snapshot) handleDevice(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad device id")
		return
	}
	dto, ok := sn.views.Device(id)
	if !ok {
		writeError(w, http.StatusNotFound, "device not inferred")
		return
	}
	cats, _ := sn.views.ThreatCategories(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"device":           dto,
		"threatCategories": cats,
	})
}

func (sn *Snapshot) handleThreats(w http.ResponseWriter, r *http.Request) {
	ip, err := netx.ParseAddr(r.PathValue("ip"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad IP")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ip":     ip.String(),
		"events": sn.views.ThreatEvents(ip),
	})
}

func (sn *Snapshot) handleSpikes(w http.ResponseWriter, r *http.Request) {
	threshold, ok := floatParamGreaterThan(w, r.URL.Query().Get("threshold"), 8.0, 1,
		"threshold must be > 1")
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold": threshold,
		"spikes":    sn.views.DoSSpikes(threshold),
	})
}

func (sn *Snapshot) handleTCPPorts(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, sn.views.TCPPortsBody())
}

func (sn *Snapshot) handleUDPPorts(w http.ResponseWriter, r *http.Request) {
	n, ok := intParam(w, r.URL.Query().Get("n"), 10, 1, 1000, "n must be 1..1000")
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ports": sn.views.TopUDP(n)})
}

func (sn *Snapshot) handleSignatures(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, sn.views.SignaturesBody())
}

func (sn *Snapshot) handleCampaigns(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, sn.views.CampaignsBody())
}

// handleReports serves the per-ISP abuse notification bundles (the paper's
// "IoT-tailored notifications ... permitting rapid remediation"). The
// bundles were rendered at build in descending device count, so every
// minDevices answer is a prefix of the stored bytes plus a constant tail.
func (sn *Snapshot) handleReports(w http.ResponseWriter, r *http.Request) {
	minDevices, ok := intParam(w, r.URL.Query().Get("minDevices"), 1, 1, maxInt,
		"minDevices must be >= 1")
	if !ok {
		return
	}
	head, tail := sn.views.ReportsBody(minDevices)
	writeBody(w, http.StatusOK, head, tail)
}

func (sn *Snapshot) handleMalware(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, sn.views.MalwareBody())
}
