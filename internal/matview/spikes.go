package matview

import (
	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/stats"
)

// Spike is the wire shape of one detected DoS episode.
type Spike struct {
	StartHour int     `json:"startHour"`
	EndHour   int     `json:"endHour"`
	Packets   uint64  `json:"packets"`
	Victim    int     `json:"victimDevice"`
	Share     float64 `json:"victimShare"`
	Country   string  `json:"country"`
	Category  string  `json:"category"`
}

// spikeIndex precomputes everything DoS-spike detection needs that does
// not depend on the caller's threshold: the hourly backscatter series,
// the median of its positive hours, and an inverted per-hour victim
// index. Detection for any threshold then touches only the episode's own
// hours instead of every device × every hour.
type spikeIndex struct {
	series  []float64 // per-hour backscatter packets
	median  float64   // median of the positive hours
	any     bool      // whether any hour saw backscatter
	victims [][]victimHour
}

type victimHour struct {
	id   int
	pkts uint64
}

func (v *Views) buildSpikeIndex(res *correlate.Result) {
	si := &v.spikes
	si.series = res.HourlyClassSeries(classify.Backscatter, 0)
	var positive []float64
	for _, x := range si.series {
		if x > 0 {
			positive = append(positive, x)
		}
	}
	si.any = len(positive) > 0
	if si.any {
		si.median = stats.Quantile(positive, 0.5)
	}
	si.victims = make([][]victimHour, len(si.series))
	for id, ds := range res.Devices {
		for h, pkts := range ds.BackscatterHourly {
			if pkts > 0 && h >= 0 && h < len(si.victims) {
				si.victims[h] = append(si.victims[h], victimHour{id: id, pkts: pkts})
			}
		}
	}
}

// DoSSpikes is the one DoS-spike detector (Sec. IV-B1): the report's
// Fig. 7 reads it at threshold 8 and /v1/spikes at the caller's. It finds
// the hours whose backscatter exceeds threshold × the median positive
// hour, groups consecutive ones into episodes, and attributes each to the
// victim with the most packets in the episode (ties to the lowest device
// ID), the paper's finding that one device generates almost all of every
// spike. A threshold at or below 1 reads as 5. Never nil.
func (v *Views) DoSSpikes(threshold float64) []Spike {
	if threshold <= 1 {
		threshold = 5
	}
	out := []Spike{}
	si := &v.spikes
	if !si.any {
		return out
	}
	median := si.median
	if median <= 0 {
		median = 1
	}
	cut := median * threshold

	inSpike := false
	for h := 0; h <= len(si.series); h++ {
		hot := h < len(si.series) && si.series[h] > cut
		switch {
		case hot && !inSpike:
			out = append(out, Spike{StartHour: h, EndHour: h})
			inSpike = true
		case hot && inSpike:
			out[len(out)-1].EndHour = h
		case !hot && inSpike:
			inSpike = false
		}
	}
	for i := range out {
		sp := &out[i]
		perDevice := make(map[int]uint64)
		for h := sp.StartHour; h <= sp.EndHour && h < len(si.victims); h++ {
			for _, vh := range si.victims[h] {
				perDevice[vh.id] += vh.pkts
				sp.Packets += vh.pkts
			}
		}
		var bestID int
		var bestPkts uint64
		for id, pkts := range perDevice {
			if pkts > bestPkts || (pkts == bestPkts && id < bestID) {
				bestID, bestPkts = id, pkts
			}
		}
		sp.Victim = bestID
		if sp.Packets > 0 {
			sp.Share = float64(bestPkts) / float64(sp.Packets)
		}
		d := v.inv.At(sp.Victim)
		sp.Country = d.Country
		sp.Category = d.Category.String()
	}
	return out
}
