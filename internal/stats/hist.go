package stats

import (
	"math"
	"sort"
)

// LogHistogram bins positive values into decade-spaced buckets, matching the
// paper's Fig. 6/11 presentation (CDF over 0.001K..10000K packets on a log
// axis).
type LogHistogram struct {
	// Edges are bucket upper bounds; counts[i] holds values in
	// (edges[i-1], edges[i]] with counts[0] covering (0, edges[0]].
	Edges  []float64
	Counts []int
	total  int
}

// NewLogHistogram builds decade buckets from 10^loExp to 10^hiExp inclusive.
func NewLogHistogram(loExp, hiExp int) *LogHistogram {
	if hiExp < loExp {
		loExp, hiExp = hiExp, loExp
	}
	n := hiExp - loExp + 1
	edges := make([]float64, n)
	for i := range edges {
		edges[i] = math.Pow(10, float64(loExp+i))
	}
	return &LogHistogram{Edges: edges, Counts: make([]int, n+1)}
}

// Observe records a value. Values above the top edge land in the overflow
// bucket (index len(Edges)); non-positive values count in bucket 0.
func (h *LogHistogram) Observe(v float64) {
	h.total++
	i := sort.SearchFloat64s(h.Edges, v)
	h.Counts[i]++
}

// Total returns the number of observations.
func (h *LogHistogram) Total() int { return h.total }

// CumFraction returns the fraction of observations at or below each edge:
// one value per edge, the paper's CDF-over-log-bins series.
func (h *LogHistogram) CumFraction() []float64 {
	out := make([]float64, len(h.Edges))
	cum := 0
	for i := range h.Edges {
		cum += h.Counts[i]
		if h.total > 0 {
			out[i] = float64(cum) / float64(h.total)
		}
	}
	return out
}
