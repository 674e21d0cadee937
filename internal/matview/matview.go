// Package matview materializes the read side of the sharing API. At
// snapshot build time — once per analysis or store load, never per
// request — it precomputes every aggregate the /v1/* endpoints serve:
// pre-encoded response bodies for the parameterless endpoints (summary,
// TCP port table, signatures, campaigns, malware indicators), a sorted
// device index with secondary indexes for every country/category filter
// combination, the full sorted UDP port table (top-K = prefix), the
// rendered /v1/reports body with an offsets table (the answer for any
// minDevices is a prefix of its bytes), and an inverted per-hour victim
// index that turns DoS-spike attribution from an O(devices × hours) walk
// into an O(episode) lookup.
//
// The resulting Views value is immutable: handlers read it concurrently
// with no locking, and a snapshot swap replaces the whole Views pointer.
// Every precomputation reproduces the corresponding on-demand handler
// computation byte-for-byte (the apiserve equivalence suite pins this),
// so materialization changes request cost — O(answer) instead of
// O(dataset) — without changing a single response byte.
//
// Views also carries the content digest of the correlation result (via
// resultstore.DigestResult), from which the server derives strong ETags:
// two snapshots with identical analyzed state validate each other's
// cached responses even across restarts.
package matview

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"iotscope/internal/analysis"
	"iotscope/internal/campaign"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
	"iotscope/internal/malwaredb"
	"iotscope/internal/netx"
	"iotscope/internal/notify"
	"iotscope/internal/resultstore"
	"iotscope/internal/threatintel"
)

// Sources collects the analysis outputs a Views is materialized from.
// Result, Analyzer, Inventory, and Registry are required; Threat is
// optional (nil yields empty threat lookups). MalwareDB and Catalog are the
// dataset's sandbox corpus and family catalog, from which /v1/reports takes
// the same malware evidence iotnotify's complaints carry (a nil MalwareDB
// omits it). Digest, when not zero, is resultstore.DigestResult(Result)
// already known — a store's loader reads it off the file — and spares Build
// the export and encode that compute it.
type Sources struct {
	Result    *correlate.Result
	Analyzer  *analysis.Analyzer
	Summary   analysis.CompromisedSummary
	StatTests analysis.StatTests
	Malware   malwaredb.Correlation
	Inventory *devicedb.Inventory
	Registry  *geo.Registry
	Threat    *threatintel.Repository
	MalwareDB *malwaredb.DB
	Catalog   *malwaredb.Catalog
	Digest    uint32
}

// Views is one snapshot's materialized read side. All fields are written
// once by Build and never mutated; methods are safe for unbounded
// concurrent use.
type Views struct {
	digest   uint32
	buildDur time.Duration

	// Pre-encoded bodies for the parameterless endpoints, byte-identical
	// to encoding the handler's response value with a two-space-indented
	// json.Encoder (trailing newline included).
	summaryBody    []byte
	tcpPortsBody   []byte
	signaturesBody []byte
	campaignsBody  []byte
	malwareBody    []byte

	rows       []Device      // inferred devices, ascending ID
	rowJSON    [][]byte      // per-row pre-rendered array elements
	byID       map[int]int32 // device ID → index into rows
	threatCats [][]string    // per-row corroborating intel categories, never nil
	filters    map[filterKey][]int32

	udpRows []analysis.UDPPortRow // full table, descending packets

	reports ReportsTable // per-ISP reports at MinDevices=1, rendered

	spikes spikeIndex

	inv    *devicedb.Inventory
	threat *threatintel.Repository
}

// Signature is a derived IoT attack signature (the paper's contribution
// 2: "the analyzed traffic could be leveraged to design such
// signatures"). It lives here because the signature table is
// materialized; apiserve re-exports it.
type Signature struct {
	Name        string   `json:"name"`
	Protocol    string   `json:"protocol"`
	Ports       []uint16 `json:"ports"`
	PacketShare float64  `json:"packetShare"`
	Devices     int      `json:"devices"`
	Realm       string   `json:"dominantRealm"`
}

// ThreatEvent is the wire shape of one threat-intelligence event.
type ThreatEvent struct {
	Category string `json:"category"`
	Source   string `json:"source"`
	Day      int    `json:"day"`
}

// Build is BuildContext that cannot be cancelled. BuildContext runs its
// terms on goroutines, so it takes a context; this signature has none to
// give it, because tools/perfledger, frozen with the benchmark it defines,
// calls Build as it is.
func Build(src Sources) (*Views, error) { return BuildContext(context.Background(), src) }

// BuildContext materializes every view from the analysis outputs. It is
// called from the pipeline's materialize stage, so both the analyze path and
// the snapshot-load path pay the build exactly once per swap.
//
// The terms that share no output run as concurrent tasks: the digest (when
// src.Digest is zero), the UDP table, the reports body and campaign
// detection each on its own goroutine while the caller builds the device
// and spike indexes. All are joined before any is read; an error is the one
// the terms would have returned run in that order, and the static bodies
// are encoded after the join. A context already done stops the build before
// it starts; once started, the terms run to their end.
func BuildContext(ctx context.Context, src Sources) (*Views, error) {
	if src.Result == nil || src.Analyzer == nil || src.Inventory == nil || src.Registry == nil {
		return nil, fmt.Errorf("matview: result, analyzer, inventory, and registry are required")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	v := &Views{inv: src.Inventory, threat: src.Threat, digest: src.Digest}

	var (
		wg                                 sync.WaitGroup
		digestErr, reportsErr, campaignErr error
		campaigns                          []campaign.Campaign
	)
	task := func(run func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	if v.digest == 0 {
		task(func() { v.digest, digestErr = resultstore.DigestResult(src.Result) })
	}
	task(func() { v.udpRows = src.Analyzer.TopUDPPorts(0) })
	task(func() {
		v.reports, reportsErr = RenderReports(notify.BuildBundles(notify.Sources{
			Result: src.Result, Inventory: src.Inventory, Registry: src.Registry,
			Threat: src.Threat, Malware: src.MalwareDB, Catalog: src.Catalog,
		}, notify.DefaultConfig()))
	})
	task(func() { campaigns, campaignErr = campaign.Detect(src.Result, campaign.DefaultConfig()) })
	indexErr := v.buildDeviceIndex(src)
	v.buildSpikeIndex(src.Result)
	wg.Wait()

	switch {
	case digestErr != nil:
		return nil, fmt.Errorf("matview: digest: %w", digestErr)
	case indexErr != nil:
		return nil, indexErr
	case reportsErr != nil:
		return nil, reportsErr
	case campaignErr != nil:
		return nil, fmt.Errorf("matview: campaigns: %w", campaignErr)
	}

	scanRows := src.Analyzer.TopScanServices(analysis.DefaultScanServices())
	var sigs []Signature
	for _, row := range scanRows {
		if row.Packets == 0 {
			continue
		}
		realm := "cps"
		if row.ConsumerPct >= 50 {
			realm = "consumer"
		}
		sigs = append(sigs, Signature{
			Name: row.Service, Protocol: "tcp-syn", Ports: row.Ports,
			PacketShare: row.Pct, Devices: row.ConsumerDevices + row.CPSDevices,
			Realm: realm,
		})
	}
	for _, row := range v.TopUDP(10) {
		sigs = append(sigs, Signature{
			Name:     fmt.Sprintf("udp-%d", row.Port),
			Protocol: "udp", Ports: []uint16{row.Port},
			PacketShare: row.Pct, Devices: row.Devices, Realm: "mixed",
		})
	}

	for _, enc := range []struct {
		dst  *[]byte
		body any
	}{
		{&v.summaryBody, map[string]any{
			"summary":     src.Summary,
			"backscatter": src.Analyzer.Backscatter(),
			"statTests":   src.StatTests,
		}},
		{&v.tcpPortsBody, map[string]any{"services": scanRows}},
		{&v.signaturesBody, map[string]any{"signatures": sigs}},
		{&v.campaignsBody, map[string]any{"campaigns": campaigns}},
		{&v.malwareBody, map[string]any{
			"hashes":   src.Malware.Hashes,
			"domains":  src.Malware.Domains,
			"families": src.Malware.Families,
			"devices":  src.Malware.MatchedDevices,
		}},
	} {
		b, err := encodeBody(enc.body)
		if err != nil {
			return nil, fmt.Errorf("matview: encode static body: %w", err)
		}
		*enc.dst = b
	}

	v.buildDur = time.Since(start)
	return v, nil
}

// encodeBody renders v exactly as the serving layer's writeJSON does:
// two-space indent plus the json.Encoder trailing newline.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Digest is the content digest of the underlying correlation result —
// the CRC32 of its resultstore encoding, stable across restarts for
// identical analyzed state.
func (v *Views) Digest() uint32 { return v.digest }

// SummaryBody is the pre-encoded /v1/summary response.
func (v *Views) SummaryBody() []byte { return v.summaryBody }

// TCPPortsBody is the pre-encoded /v1/ports/tcp response.
func (v *Views) TCPPortsBody() []byte { return v.tcpPortsBody }

// SignaturesBody is the pre-encoded /v1/signatures response.
func (v *Views) SignaturesBody() []byte { return v.signaturesBody }

// CampaignsBody is the pre-encoded /v1/campaigns response.
func (v *Views) CampaignsBody() []byte { return v.campaignsBody }

// MalwareBody is the pre-encoded /v1/malware response.
func (v *Views) MalwareBody() []byte { return v.malwareBody }

// TopUDP returns the first n rows of the materialized UDP port table
// (n <= 0 or beyond the table returns the whole table). The slice aliases
// the immutable view — callers must not mutate it.
func (v *Views) TopUDP(n int) []analysis.UDPPortRow {
	if n <= 0 || n >= len(v.udpRows) {
		return v.udpRows
	}
	return v.udpRows[:n]
}

// ReportsBody is the /v1/reports response for the per-ISP notification
// bundles with at least minDevices devices, as a head and a tail to be
// written back to back (see ReportsTable.Body).
func (v *Views) ReportsBody(minDevices int) (head, tail []byte) {
	return v.reports.Body(minDevices)
}

// Bundles returns the per-ISP notification bundles with at least
// minDevices devices, in the order ReportsBody renders them (see
// ReportsTable.Bundles).
func (v *Views) Bundles(minDevices int) []notify.Bundle { return v.reports.Bundles(minDevices) }

// ThreatEvents returns the wire-shaped intel events for ip. Never nil.
func (v *Views) ThreatEvents(ip netx.Addr) []ThreatEvent {
	if v.threat == nil {
		return []ThreatEvent{}
	}
	events := v.threat.Query(ip)
	out := make([]ThreatEvent, len(events))
	for i, ev := range events {
		out[i] = ThreatEvent{Category: ev.Category.String(), Source: ev.Source, Day: ev.Day}
	}
	return out
}

// Stats summarizes the materialized tables for observability surfaces
// (/debug/vars, stage reports, docs measurements).
type Stats struct {
	Devices       int     `json:"devices"`
	FilterLists   int     `json:"filterLists"`
	FilterEntries int     `json:"filterEntries"`
	UDPPorts      int     `json:"udpPorts"`
	Bundles       int     `json:"bundles"`
	Hours         int     `json:"hours"`
	VictimEntries int     `json:"victimEntries"`
	StaticBytes   int     `json:"staticBytes"`  // the five parameterless bodies
	ReportsBytes  int     `json:"reportsBytes"` // the rendered /v1/reports body
	BuildMillis   float64 `json:"buildMillis"`
	Digest        string  `json:"digest"`
}

// Stats reports table sizes and build cost.
func (v *Views) Stats() Stats {
	s := Stats{
		Devices:     len(v.rows),
		FilterLists: len(v.filters),
		UDPPorts:    len(v.udpRows),
		Bundles:     len(v.reports.end),
		Hours:       len(v.spikes.series),
		StaticBytes: len(v.summaryBody) + len(v.tcpPortsBody) + len(v.signaturesBody) +
			len(v.campaignsBody) + len(v.malwareBody),
		ReportsBytes: len(v.reports.body),
		BuildMillis:  float64(v.buildDur.Microseconds()) / 1000,
		Digest:       fmt.Sprintf("%08x", v.digest),
	}
	for _, ids := range v.filters {
		s.FilterEntries += len(ids)
	}
	for _, hv := range v.spikes.victims {
		s.VictimEntries += len(hv)
	}
	return s
}
