package threatintel

import (
	"context"
	"sort"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
)

// InvestigateConfig selects the "explored" device set of Sec. V-A: all DoS
// victims plus the top-N loudest scanners/probers per realm.
type InvestigateConfig struct {
	// TopPerCategory is the per-realm cut of loudest devices by scanning +
	// UDP packets (the paper: 4,000 each).
	TopPerCategory int
}

// CategoryCount is one Table VI row.
type CategoryCount struct {
	Category Category
	Devices  int
	Pct      float64 // of flagged devices
}

// Finding is one flagged device.
type Finding struct {
	Device     int
	Categories []Category
	Packets    uint64
}

// Investigation is the Sec. V-A output: Table VI plus Fig. 11 inputs.
type Investigation struct {
	Explored       int
	Flagged        []Finding
	ByCategory     []CategoryCount
	ExploredTotals []float64 // per-device packet totals for Fig. 11
	FlaggedTotals  []float64
	// Realm split of malware-flagged devices (Sec. V-A: 91 CPS, 26
	// consumer).
	MalwareCPS      int
	MalwareConsumer int
}

// Investigate correlates the inferred devices against the repository.
// Cancellation is checked between explored devices; a cancelled run
// returns ctx.Err() and a partial Investigation the caller must discard.
func Investigate(ctx context.Context, cfg InvestigateConfig, res *correlate.Result,
	inv *devicedb.Inventory, repo *Repository) (Investigation, error) {

	explored := exploreSet(cfg, res, inv)
	out := Investigation{Explored: len(explored)}

	catCounts := make(map[Category]int)
	for _, id := range explored {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		ds := res.Devices[id]
		total := float64(ds.TotalPackets())
		out.ExploredTotals = append(out.ExploredTotals, total)

		cats := repo.CategoriesOf(inv.At(id).IP)
		if len(cats) == 0 {
			continue
		}
		out.Flagged = append(out.Flagged, Finding{
			Device: id, Categories: cats, Packets: ds.TotalPackets(),
		})
		out.FlaggedTotals = append(out.FlaggedTotals, total)
		for _, c := range cats {
			catCounts[c]++
			if c == Malware {
				if inv.At(id).Category == devicedb.CPS {
					out.MalwareCPS++
				} else {
					out.MalwareConsumer++
				}
			}
		}
	}
	for _, c := range Categories() {
		n := catCounts[c]
		pct := 0.0
		if len(out.Flagged) > 0 {
			pct = 100 * float64(n) / float64(len(out.Flagged))
		}
		out.ByCategory = append(out.ByCategory, CategoryCount{Category: c, Devices: n, Pct: pct})
	}
	sort.Slice(out.ByCategory, func(i, j int) bool {
		if out.ByCategory[i].Devices != out.ByCategory[j].Devices {
			return out.ByCategory[i].Devices > out.ByCategory[j].Devices
		}
		return out.ByCategory[i].Category < out.ByCategory[j].Category
	})
	sort.Float64s(out.ExploredTotals)
	sort.Float64s(out.FlaggedTotals)
	return out, nil
}

// exploreSet picks every backscatter victim plus the loudest
// scanning/probing devices per realm.
func exploreSet(cfg InvestigateConfig, res *correlate.Result, inv *devicedb.Inventory) []int {
	type loud struct {
		id   int
		pkts uint64
	}
	var consumer, cps []loud
	seen := make(map[int]bool)
	var out []int
	for id, ds := range res.Devices {
		if ds.Packets[classify.Backscatter.Index()] > 0 {
			out = append(out, id)
			seen[id] = true
		}
		noise := ds.Packets[classify.ScanTCP.Index()] +
			ds.Packets[classify.ScanICMP.Index()] +
			ds.Packets[classify.UDP.Index()]
		if noise == 0 {
			continue
		}
		entry := loud{id, noise}
		if inv.At(id).Category == devicedb.Consumer {
			consumer = append(consumer, entry)
		} else {
			cps = append(cps, entry)
		}
	}
	take := func(pool []loud) {
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].pkts != pool[j].pkts {
				return pool[i].pkts > pool[j].pkts
			}
			return pool[i].id < pool[j].id
		})
		n := cfg.TopPerCategory
		if n > len(pool) {
			n = len(pool)
		}
		for _, l := range pool[:n] {
			if !seen[l.id] {
				out = append(out, l.id)
				seen[l.id] = true
			}
		}
	}
	take(consumer)
	take(cps)
	sort.Ints(out)
	return out
}
