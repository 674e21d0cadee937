package apiserve

// This file is the pre-materialization oracle: verbatim copies of the
// /v1/* read handlers as they existed before internal/matview, walking
// the analyzed Result per request. The equivalence suite replays the
// same requests against these and against the view-backed server and
// requires byte-identical bodies. Do not "fix" or modernize this code —
// its value is that it does NOT share logic with the serving path.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"iotscope/internal/analysis"
	"iotscope/internal/campaign"
	"iotscope/internal/classify"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/netx"
	"iotscope/internal/notify"
	"iotscope/internal/stats"
)

// legacySnap mirrors the old Snapshot's data access.
type legacySnap struct {
	ds  *core.Dataset
	res *core.Results
}

// legacyMux routes exactly the read endpoints the refactor touched.
func legacyMux(ds *core.Dataset, res *core.Results) *http.ServeMux {
	sn := &legacySnap{ds: ds, res: res}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/summary", sn.handleSummary)
	mux.HandleFunc("GET /v1/devices", sn.handleDevices)
	mux.HandleFunc("GET /v1/devices/{id}", sn.handleDevice)
	mux.HandleFunc("GET /v1/threats/{ip}", sn.handleThreats)
	mux.HandleFunc("GET /v1/spikes", sn.handleSpikes)
	mux.HandleFunc("GET /v1/ports/tcp", sn.handleTCPPorts)
	mux.HandleFunc("GET /v1/ports/udp", sn.handleUDPPorts)
	mux.HandleFunc("GET /v1/signatures", sn.handleSignatures)
	mux.HandleFunc("GET /v1/campaigns", sn.handleCampaigns)
	mux.HandleFunc("GET /v1/malware", sn.handleMalware)
	mux.HandleFunc("GET /v1/reports", sn.handleReports)
	return mux
}

func legacyWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func legacyWriteError(w http.ResponseWriter, status int, msg string) {
	legacyWriteJSON(w, status, map[string]string{"error": msg})
}

func legacyParseIntDefault(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return v
}

func (sn *legacySnap) handleSummary(w http.ResponseWriter, _ *http.Request) {
	bs := sn.res.Analyzer.Backscatter()
	legacyWriteJSON(w, http.StatusOK, map[string]any{
		"summary":     sn.res.Summary,
		"backscatter": bs,
		"statTests":   sn.res.StatTests,
	})
}

type legacyDeviceDTO struct {
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

func (sn *legacySnap) deviceDTO(id int) legacyDeviceDTO {
	d := sn.ds.Inventory.At(id)
	st := sn.res.Correlate.Devices[id]
	dto := legacyDeviceDTO{
		ID: id, IP: d.IP.String(),
		Category: d.Category.String(), Type: d.Type.String(),
		Country: d.Country, ISP: sn.ds.Registry.ISPs[d.ISP].Name,
		Services: d.Services,
	}
	if st != nil {
		dto.FirstSeen = st.FirstSeen
		dto.Packets = st.TotalPackets()
		dto.Scanning = st.Packets[classify.ScanTCP.Index()] + st.Packets[classify.ScanICMP.Index()]
		dto.Backscatter = st.Packets[classify.Backscatter.Index()]
		dto.UDP = st.Packets[classify.UDP.Index()]
	}
	return dto
}

func (sn *legacySnap) handleDevices(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	country := q.Get("country")
	catFilter := q.Get("category")
	if catFilter != "" {
		if _, err := devicedb.ParseCategory(catFilter); err != nil {
			legacyWriteError(w, http.StatusBadRequest, "unknown category")
			return
		}
	}
	limit := legacyParseIntDefault(q.Get("limit"), 100)
	offset := legacyParseIntDefault(q.Get("offset"), 0)
	if limit < 1 || limit > 1000 || offset < 0 {
		legacyWriteError(w, http.StatusBadRequest, "limit must be 1..1000, offset >= 0")
		return
	}

	ids := make([]int, 0, len(sn.res.Correlate.Devices))
	for id := range sn.res.Correlate.Devices {
		d := sn.ds.Inventory.At(id)
		if country != "" && d.Country != country {
			continue
		}
		if catFilter != "" && d.Category.String() != catFilter {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	total := len(ids)
	if offset > len(ids) {
		offset = len(ids)
	}
	ids = ids[offset:]
	if len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]legacyDeviceDTO, len(ids))
	for i, id := range ids {
		out[i] = sn.deviceDTO(id)
	}
	legacyWriteJSON(w, http.StatusOK, map[string]any{
		"total":   total,
		"offset":  offset,
		"devices": out,
	})
}

func (sn *legacySnap) handleDevice(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		legacyWriteError(w, http.StatusBadRequest, "bad device id")
		return
	}
	if _, ok := sn.res.Correlate.Devices[id]; !ok {
		legacyWriteError(w, http.StatusNotFound, "device not inferred")
		return
	}
	dto := sn.deviceDTO(id)
	threats := sn.ds.Threat.CategoriesOf(sn.ds.Inventory.At(id).IP)
	cats := make([]string, len(threats))
	for i, c := range threats {
		cats[i] = c.String()
	}
	legacyWriteJSON(w, http.StatusOK, map[string]any{
		"device":           dto,
		"threatCategories": cats,
	})
}

func (sn *legacySnap) handleThreats(w http.ResponseWriter, r *http.Request) {
	ip, err := netx.ParseAddr(r.PathValue("ip"))
	if err != nil {
		legacyWriteError(w, http.StatusBadRequest, "bad IP")
		return
	}
	events := sn.ds.Threat.Query(ip)
	type eventDTO struct {
		Category string `json:"category"`
		Source   string `json:"source"`
		Day      int    `json:"day"`
	}
	out := make([]eventDTO, len(events))
	for i, ev := range events {
		out[i] = eventDTO{Category: ev.Category.String(), Source: ev.Source, Day: ev.Day}
	}
	legacyWriteJSON(w, http.StatusOK, map[string]any{"ip": ip.String(), "events": out})
}

func (sn *legacySnap) handleSpikes(w http.ResponseWriter, r *http.Request) {
	threshold := 8.0
	if v := r.URL.Query().Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 1 {
			legacyWriteError(w, http.StatusBadRequest, "threshold must be > 1")
			return
		}
		threshold = f
	}
	spikes := legacyDetectDoSSpikes(sn.res.Correlate, threshold)
	type spikeDTO struct {
		StartHour int     `json:"startHour"`
		EndHour   int     `json:"endHour"`
		Packets   uint64  `json:"packets"`
		Victim    int     `json:"victimDevice"`
		Share     float64 `json:"victimShare"`
		Country   string  `json:"country"`
		Category  string  `json:"category"`
	}
	out := make([]spikeDTO, len(spikes))
	for i, sp := range spikes {
		d := sn.ds.Inventory.At(sp.TopDevice)
		out[i] = spikeDTO{
			StartHour: sp.StartHour, EndHour: sp.EndHour, Packets: sp.Packets,
			Victim: sp.TopDevice, Share: sp.TopShare,
			Country: d.Country, Category: d.Category.String(),
		}
	}
	legacyWriteJSON(w, http.StatusOK, map[string]any{"threshold": threshold, "spikes": out})
}

// legacyDoSSpike and legacyDetectDoSSpikes are the analyzer's spike
// detector as it stood before the materialized index replaced it.
type legacyDoSSpike struct {
	StartHour int
	EndHour   int // inclusive
	Packets   uint64
	TopDevice int     // device ID dominating the spike
	TopShare  float64 // its share of the spike packets
}

func legacyDetectDoSSpikes(res *correlate.Result, threshold float64) []legacyDoSSpike {
	if threshold <= 1 {
		threshold = 5
	}
	series := res.HourlyClassSeries(classify.Backscatter, 0)
	var positive []float64
	for _, v := range series {
		if v > 0 {
			positive = append(positive, v)
		}
	}
	if len(positive) == 0 {
		return nil
	}
	median := stats.Quantile(positive, 0.5)
	if median <= 0 {
		median = 1
	}
	cut := median * threshold

	var spikes []legacyDoSSpike
	inSpike := false
	for h := 0; h <= len(series); h++ {
		hot := h < len(series) && series[h] > cut
		switch {
		case hot && !inSpike:
			spikes = append(spikes, legacyDoSSpike{StartHour: h, EndHour: h})
			inSpike = true
		case hot && inSpike:
			spikes[len(spikes)-1].EndHour = h
		case !hot && inSpike:
			inSpike = false
		}
	}
	// Attribute each spike to its dominant victim.
	for i := range spikes {
		sp := &spikes[i]
		perDevice := make(map[int]uint64)
		for id, ds := range res.Devices {
			for h := sp.StartHour; h <= sp.EndHour; h++ {
				if v := ds.BackscatterHourly[h]; v > 0 {
					perDevice[id] += v
					sp.Packets += v
				}
			}
		}
		var bestID int
		var bestPkts uint64
		for id, v := range perDevice {
			if v > bestPkts || (v == bestPkts && id < bestID) {
				bestID, bestPkts = id, v
			}
		}
		sp.TopDevice = bestID
		if sp.Packets > 0 {
			sp.TopShare = float64(bestPkts) / float64(sp.Packets)
		}
	}
	return spikes
}

func (sn *legacySnap) handleTCPPorts(w http.ResponseWriter, _ *http.Request) {
	legacyWriteJSON(w, http.StatusOK, map[string]any{
		"services": sn.res.Analyzer.TopScanServices(analysis.DefaultScanServices()),
	})
}

func (sn *legacySnap) handleUDPPorts(w http.ResponseWriter, r *http.Request) {
	n := legacyParseIntDefault(r.URL.Query().Get("n"), 10)
	if n < 1 || n > 1000 {
		legacyWriteError(w, http.StatusBadRequest, "n must be 1..1000")
		return
	}
	legacyWriteJSON(w, http.StatusOK, map[string]any{"ports": sn.res.Analyzer.TopUDPPorts(n)})
}

func (sn *legacySnap) handleSignatures(w http.ResponseWriter, _ *http.Request) {
	var sigs []Signature
	for _, row := range sn.res.Analyzer.TopScanServices(analysis.DefaultScanServices()) {
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
	for _, row := range sn.res.Analyzer.TopUDPPorts(10) {
		sigs = append(sigs, Signature{
			Name:     fmt.Sprintf("udp-%d", row.Port),
			Protocol: "udp", Ports: []uint16{row.Port},
			PacketShare: row.Pct, Devices: row.Devices, Realm: "mixed",
		})
	}
	legacyWriteJSON(w, http.StatusOK, map[string]any{"signatures": sigs})
}

func (sn *legacySnap) handleCampaigns(w http.ResponseWriter, _ *http.Request) {
	campaigns, err := campaign.Detect(sn.res.Correlate, campaign.DefaultConfig())
	if err != nil {
		legacyWriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	legacyWriteJSON(w, http.StatusOK, map[string]any{"campaigns": campaigns})
}

func (sn *legacySnap) handleReports(w http.ResponseWriter, r *http.Request) {
	minDevices := legacyParseIntDefault(r.URL.Query().Get("minDevices"), 1)
	if minDevices < 1 {
		legacyWriteError(w, http.StatusBadRequest, "minDevices must be >= 1")
		return
	}
	bundles := notify.BuildBundles(notify.Sources{
		Result: sn.res.Correlate, Inventory: sn.ds.Inventory, Registry: sn.ds.Registry,
		Threat: sn.ds.Threat, Malware: sn.ds.Malware, Catalog: sn.ds.Catalog,
	}, notify.Config{MinDevices: minDevices, MinPackets: 1})
	legacyWriteJSON(w, http.StatusOK, map[string]any{"reports": bundles})
}

func (sn *legacySnap) handleMalware(w http.ResponseWriter, _ *http.Request) {
	legacyWriteJSON(w, http.StatusOK, map[string]any{
		"hashes":   sn.res.Malware.Hashes,
		"domains":  sn.res.Malware.Domains,
		"families": sn.res.Malware.Families,
		"devices":  sn.res.Malware.MatchedDevices,
	})
}
