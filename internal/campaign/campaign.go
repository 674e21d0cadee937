// Package campaign clusters inferred scanning devices into coordinated
// campaigns — the "identifying and clustering IoT botnets and their illicit
// activities by solely scrutinizing passive measurements" the paper's
// conclusion names as future work (and its authors' CSC-Detector line of
// research).
//
// Two scanners belong to the same campaign when their target-port profiles
// are similar (weighted Jaccard over the ports that carry their scanning
// packets) — a Mirai-style cohort all hammering 23/2323, an SSH brute-force
// ring on 22, a CWMP sweep on 7547. Clustering is single-linkage over the
// similarity graph via union-find, which matches the transitive nature of
// botnet membership evidence.
//
// A Tracker holds the profiles and keeps them current as hours are sealed;
// Detect is a tracker loaded from a finished result and asked once.
package campaign

import (
	"fmt"
	"sort"

	"iotscope/internal/correlate"
)

// Config tunes campaign detection.
type Config struct {
	// MinPortShare drops a device's incidental ports: only ports carrying
	// at least this fraction of the device's scan packets define its
	// profile (default 0.05).
	MinPortShare float64
	// Similarity is the weighted-Jaccard threshold linking two devices
	// (default 0.5).
	Similarity float64
	// MinDevices drops singleton/tiny clusters from the output
	// (default 2).
	MinDevices int
	// MaxProfilePorts caps a device's profile size; devices scanning more
	// distinct significant ports than this are "sprayers" whose port set
	// carries no campaign signal, and they are skipped (default 16).
	MaxProfilePorts int
}

// DefaultConfig returns the experiment configuration.
func DefaultConfig() Config {
	return Config{
		MinPortShare:    0.05,
		Similarity:      0.5,
		MinDevices:      2,
		MaxProfilePorts: 16,
	}
}

func (c Config) withDefaults() Config {
	if c.MinPortShare <= 0 {
		c.MinPortShare = 0.05
	}
	if c.Similarity <= 0 {
		c.Similarity = 0.5
	}
	if c.MinDevices < 1 {
		c.MinDevices = 2
	}
	if c.MaxProfilePorts <= 0 {
		c.MaxProfilePorts = 16
	}
	return c
}

// Campaign is one detected cohort.
type Campaign struct {
	// Devices are the member device IDs, ascending.
	Devices []int
	// Ports is the union of the members' significant ports, by weight.
	Ports []uint16
	// Packets is the members' combined scan volume on those ports.
	Packets uint64
}

// portWeight is one port of a scan profile with the packets attributed to it.
type portWeight struct {
	port uint16
	w    uint64
}

// deviceProfile is a device's significant-port scan profile, ascending by
// port: every float sum over a profile runs in that one order, so detection
// is a pure function of the result.
type deviceProfile struct {
	id    int
	ports []portWeight
	total uint64
}

// Detect clusters the scanners in a correlation result: the one-shot form of
// a Tracker, bulk-loaded from res and asked once.
func Detect(res *correlate.Result, cfg Config) ([]Campaign, error) {
	if res == nil {
		return nil, fmt.Errorf("campaign: nil result")
	}
	return NewTracker(res, cfg).Campaigns(), nil
}

// cluster groups profiles into campaigns by single linkage over the
// similarity graph.
func cluster(profiles []*deviceProfile, cfg Config) []Campaign {
	if len(profiles) == 0 {
		return nil
	}

	// Invert to port -> profile indices so similarity candidates are only
	// the devices sharing at least one significant port (the graph is
	// sparse: comparing all pairs would be quadratic in the population).
	byPort := make(map[uint16][]int32)
	for i, p := range profiles {
		for _, pw := range p.ports {
			byPort[pw.port] = append(byPort[pw.port], int32(i))
		}
	}

	// Clustering is single-linkage, so a pair already in one component has
	// nothing to add: skipping it spares a cohort of n identical profiles
	// all but n-1 of its n²/2 comparisons. Which pairs get skipped depends
	// on map order; the components do not.
	uf := newUnionFind(len(profiles))
	for _, members := range byPort {
		for i, a := range members {
			for _, b := range members[i+1:] {
				if uf.find(int(a)) != uf.find(int(b)) &&
					weightedJaccard(*profiles[a], *profiles[b]) >= cfg.Similarity {
					uf.union(int(a), int(b))
				}
			}
		}
	}

	// Materialize clusters.
	groups := make(map[int][]int)
	for i := range profiles {
		root := uf.find(i)
		groups[root] = append(groups[root], i)
	}
	var out []Campaign
	for _, members := range groups {
		if len(members) < cfg.MinDevices {
			continue
		}
		c := Campaign{}
		portW := make(map[uint16]uint64)
		for _, i := range members {
			p := profiles[i]
			c.Devices = append(c.Devices, p.id)
			for _, pw := range p.ports {
				portW[pw.port] += pw.w
				c.Packets += pw.w
			}
		}
		sort.Ints(c.Devices)
		c.Ports = sortPortsByWeight(portW)
		out = append(out, c)
	}
	// Largest campaigns first; ties by first device for determinism.
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Devices) != len(out[j].Devices) {
			return len(out[i].Devices) > len(out[j].Devices)
		}
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Devices[0] < out[j].Devices[0]
	})
	return out
}

// weightedJaccard computes sum(min)/sum(max) over normalized port weights,
// merging the two port-sorted profiles so both sums run in ascending port
// order.
func weightedJaccard(a, b deviceProfile) float64 {
	if a.total == 0 || b.total == 0 {
		return 0
	}
	var interMin, unionMax float64
	pa, pb := a.ports, b.ports
	for len(pa) > 0 || len(pb) > 0 {
		var fa, fb float64
		takeA := len(pb) == 0 || (len(pa) > 0 && pa[0].port <= pb[0].port)
		takeB := len(pa) == 0 || (len(pb) > 0 && pb[0].port <= pa[0].port)
		if takeA {
			fa = float64(pa[0].w) / float64(a.total)
			pa = pa[1:]
		}
		if takeB {
			fb = float64(pb[0].w) / float64(b.total)
			pb = pb[1:]
		}
		interMin += min(fa, fb)
		unionMax += max(fa, fb)
	}
	if unionMax == 0 {
		return 0
	}
	return interMin / unionMax
}

func sortPortsByWeight(w map[uint16]uint64) []uint16 {
	type pw struct {
		port uint16
		w    uint64
	}
	list := make([]pw, 0, len(w))
	for port, weight := range w {
		list = append(list, pw{port, weight})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].w != list[j].w {
			return list[i].w > list[j].w
		}
		return list[i].port < list[j].port
	})
	out := make([]uint16, len(list))
	for i, p := range list {
		out[i] = p.port
	}
	return out
}

// unionFind is a path-compressing disjoint-set forest.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	switch {
	case uf.rank[ra] < uf.rank[rb]:
		uf.parent[ra] = rb
	case uf.rank[ra] > uf.rank[rb]:
		uf.parent[rb] = ra
	default:
		uf.parent[rb] = ra
		uf.rank[ra]++
	}
}
