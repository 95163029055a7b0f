package metablocking

import (
	"slices"

	"sparker/internal/profile"
)

// The pass bodies. Each runs over one part of a node list, leases one
// flat scratch from the graph context's pool for the whole part, and
// returns what the driver merges (see run). The owner passes weigh each
// undirected edge once, from its owner endpoint (see neighbourhood).
// Neighbourhoods are sorted only where a float sum needs a fixed order:
// WEP's partial sums and the WNP means. Blast's maximum, CNP's k-th
// weight, CEP's weights and the keep tests do not depend on the order.

// keepTest is the per-edge decision of the emit pass: a global threshold
// (WEP, CEP), or per-node thresholds (Blast, WNP, CNP) that keep an edge
// reaching either endpoint's, or both for the reciprocal rules.
type keepTest struct {
	global     float64
	node       []float64 // dense by profile ID; nil for the global rules
	reciprocal bool
}

func (k *keepTest) keep(a, b profile.ID, w float64) bool {
	if k.node == nil {
		return w >= k.global
	}
	okA, okB := w >= k.node[a], w >= k.node[b]
	if k.reciprocal {
		return okA && okB
	}
	return okA || okB
}

// emitEdges is the emit pass: it weighs every edge the part's nodes own
// and returns those kt keeps, endpoints in canonical order.
func emitEdges(g *graphContext, part []profile.ID, kt keepTest) []Edge {
	s := g.scratch.get()
	defer g.scratch.put(s)
	var out []Edge
	for _, id := range part {
		for _, other := range g.neighbourhood(id, true, s) {
			a, b := min(id, other), max(id, other)
			if w := g.weight(a, b, s.At(other)); kt.keep(a, b, w) {
				out = append(out, Edge{A: a, B: b, Weight: w})
			}
		}
	}
	return out
}

// blastMaxima is Blast's threshold pass: one dense array, indexed by
// profile ID, holding each node's largest weight over the edges the
// part's nodes own, recorded at both endpoints. A maximum is exact and
// order-free, so the driver merges the parts' arrays by element-wise max
// and halves them into the node thresholds.
func blastMaxima(g *graphContext, part []profile.ID) [][]float64 {
	maxW := make([]float64, g.scratch.n)
	s := g.scratch.get()
	defer g.scratch.put(s)
	for _, id := range part {
		for _, other := range g.neighbourhood(id, true, s) {
			w := g.weight(id, other, s.At(other))
			maxW[id] = max(maxW[id], w)
			maxW[other] = max(maxW[other], w)
		}
	}
	return [][]float64{maxW}
}

// nodeSum is one owner node's partial sum of the weights of the edges it
// owns.
type nodeSum struct {
	id    profile.ID
	sum   float64
	count int64
}

// wepPartials is WEP's threshold pass. Each owner sums its edges in
// ascending neighbour order, and the driver adds the partials in
// ascending owner order, so the global mean is the same bits however
// the owners were split.
func wepPartials(g *graphContext, part []profile.ID) []nodeSum {
	s := g.scratch.get()
	defer g.scratch.put(s)
	out := make([]nodeSum, 0, len(part))
	for _, id := range part {
		g.neighbourhood(id, true, s)
		s.SortTouched()
		p := nodeSum{id: id}
		for _, other := range s.Touched() {
			p.sum += g.weight(id, other, s.At(other))
			p.count++
		}
		if p.count > 0 {
			out = append(out, p)
		}
	}
	return out
}

// edgeWeights is CEP's threshold pass: the weight of every edge the
// part's nodes own, in no particular order.
func edgeWeights(g *graphContext, part []profile.ID) []float64 {
	s := g.scratch.get()
	defer g.scratch.put(s)
	var out []float64
	for _, id := range part {
		for _, other := range g.neighbourhood(id, true, s) {
			out = append(out, g.weight(id, other, s.At(other)))
		}
	}
	return out
}

// meanWeights is WNP's threshold pass over full neighbourhoods: each
// node's mean edge weight, summed in ascending neighbour order.
func meanWeights(g *graphContext, part []profile.ID) []nodeThresholdKV {
	s := g.scratch.get()
	defer g.scratch.put(s)
	out := make([]nodeThresholdKV, 0, len(part))
	for _, id := range part {
		if nws := g.weightedNeighbours(id, s); len(nws) > 0 {
			out = append(out, nodeThresholdKV{Key: id, Value: nodeThreshold(nws, false)})
		}
	}
	return out
}

// kthWeights is CNP's threshold pass over full neighbourhoods: each
// node's k-th largest edge weight, so that an edge is in a node's top k
// iff it weighs at least that.
func kthWeights(g *graphContext, part []profile.ID, k int) []nodeThresholdKV {
	s := g.scratch.get()
	defer g.scratch.put(s)
	out := make([]nodeThresholdKV, 0, len(part))
	for _, id := range part {
		out = append(out, nodeThresholdKV{Key: id, Value: g.kthLargestWeight(id, k, s)})
	}
	return out
}

// kthLargestWeight returns the k-th largest weight of the full
// neighbourhood of id (k clamped to its size), the top-k membership
// threshold of CNP, using the scratch's reusable weight buffer. It is an
// order statistic, so the neighbourhood is weighed in first-touch order,
// unsorted.
func (g *graphContext) kthLargestWeight(id profile.ID, k int, s *neighbourScratch) float64 {
	weights := s.wbuf[:0]
	for _, other := range g.neighbourhood(id, false, s) {
		weights = append(weights, g.weight(id, other, s.At(other)))
	}
	s.wbuf = weights
	if len(weights) == 0 {
		return 0
	}
	slices.Sort(weights)
	return weights[len(weights)-min(k, len(weights))]
}

// nodeThreshold computes one node's pruning threshold from its full
// weighted neighbourhood: the mean edge weight for WNP (summed in the
// given order, ascending neighbour ID from weightedNeighbours), or half
// the maximum for Blast.
func nodeThreshold(nws []neighbourWeight, blast bool) float64 {
	if blast {
		maxW := 0.0
		for _, nw := range nws {
			if nw.w > maxW {
				maxW = nw.w
			}
		}
		return maxW / 2
	}
	sum := 0.0
	for _, nw := range nws {
		sum += nw.w
	}
	return sum / float64(len(nws))
}
