package metablocking

import (
	"cmp"
	"fmt"
	"slices"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

// Run executes meta-blocking sequentially and returns the retained edges
// sorted by (A, B). It runs the same pass bodies as RunDistributed, on
// the whole node list at once.
func Run(idx *blocking.Index, opts Options) []Edge {
	// Without an engine the only error is an unknown rule, which keeps no
	// edges.
	edges, _ := run(idx, opts, nil, 0)
	return edges
}

// RunDistributed executes meta-blocking on the dataflow engine using the
// paper's broadcast-join-inspired algorithm: the compact block index is
// broadcast to every executor, graph nodes are partitioned, and each task
// materialises the neighbourhood of one node at a time, so the full edge
// set never crosses the shuffle. A threshold stage precedes the pruning
// stage:
//
//   - WEP aggregates per-node (sum, count) partials;
//   - Blast merges per-task dense arrays of node maxima by element-wise
//     max;
//   - WNP and CNP compute each node's threshold where the node lives;
//   - CEP collects the edge weights (weights only, not edges).
//
// The pruning stage runs over the owner nodes (see neighbourhood), with
// the thresholds broadcast. Results are bitwise identical to Run.
func RunDistributed(ctx *dataflow.Context, idx *blocking.Index, opts Options, numPartitions int) ([]Edge, error) {
	if numPartitions < 1 {
		numPartitions = ctx.DefaultPartitions()
	}
	return run(idx, opts, ctx, numPartitions)
}

// executor runs pass bodies over a list of nodes. A sequential one (nil
// ctx) calls a body once, on the whole list. A distributed one
// parallelizes the list and calls the body once per partition in a
// dataflow task, reading the graph context from a broadcast — the
// structures the Spark implementation ships to each executor.
type executor struct {
	ctx   *dataflow.Context
	parts int
	graph func() *graphContext
}

// share makes v readable from pass bodies: broadcast on the dataflow
// engine, captured directly in a sequential run.
func share[T any](ex *executor, v T) func() T {
	if ex.ctx == nil {
		return func() T { return v }
	}
	return dataflow.NewBroadcast(ex.ctx, v).Value
}

// runPass runs body over nodes and concatenates its results. A body must
// not depend on how the nodes are split, so that sequential and
// distributed runs agree bitwise.
func runPass[T any](ex *executor, nodes []profile.ID, body func(g *graphContext, part []profile.ID) []T) ([]T, error) {
	if ex.ctx == nil {
		return body(ex.graph(), nodes), nil
	}
	return dataflow.MapPartitions(dataflow.Parallelize(ex.ctx, nodes, ex.parts),
		func(part []profile.ID) ([]T, error) { return body(ex.graph(), part), nil }).Collect()
}

// run is the one driver behind Run and RunDistributed: a threshold pass
// chosen by the pruning rule, then the emit pass over the owner nodes.
func run(idx *blocking.Index, opts Options, ctx *dataflow.Context, parts int) ([]Edge, error) {
	ids := idx.ProfileIDs()
	g := newGraphContext(idx, opts)
	if needsDegrees(opts.Scheme) {
		g.computeDegrees(ids)
	}
	owners := g.owners(ids)
	ex := &executor{ctx: ctx, parts: parts}
	ex.graph = share(ex, g)

	var kt keepTest
	switch opts.Pruning {
	case WEP:
		partials, err := runPass(ex, owners, wepPartials)
		if err != nil {
			return nil, err
		}
		// Summed in ascending owner order, however the owners were split.
		slices.SortFunc(partials, func(a, b nodeSum) int { return cmp.Compare(a.id, b.id) })
		var sum float64
		var count int64
		for _, p := range partials {
			sum += p.sum
			count += p.count
		}
		if count == 0 {
			return nil, nil
		}
		kt.global = sum / float64(count)
	case CEP:
		weights, err := runPass(ex, owners, edgeWeights)
		if err != nil {
			return nil, err
		}
		if len(weights) == 0 {
			return nil, nil
		}
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CEP)
		}
		slices.Sort(weights)
		kt.global = weights[len(weights)-min(k, len(weights))]
	case BlastPruning:
		maxima, err := runPass(ex, owners, blastMaxima)
		if err != nil {
			return nil, err
		}
		kt.node = blastThresholds(maxima, g.scratch.n)
	case WNP, ReciprocalWNP:
		means, err := runPass(ex, ids, meanWeights)
		if err != nil {
			return nil, err
		}
		kt.node = denseThresholds(means, g.scratch.n)
		kt.reciprocal = opts.Pruning == ReciprocalWNP
	case CNP, ReciprocalCNP:
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CNP)
		}
		kths, err := runPass(ex, ids, func(g *graphContext, part []profile.ID) []nodeThresholdKV {
			return kthWeights(g, part, k)
		})
		if err != nil {
			return nil, err
		}
		kt.node = denseThresholds(kths, g.scratch.n)
		kt.reciprocal = opts.Pruning == ReciprocalCNP
	default:
		return nil, fmt.Errorf("metablocking: unsupported pruning rule %v", opts.Pruning)
	}

	keep := share(ex, kt)
	edges, err := runPass(ex, owners, func(g *graphContext, part []profile.ID) []Edge {
		return emitEdges(g, part, keep())
	})
	if err != nil {
		return nil, err
	}
	sortEdges(edges)
	return edges, nil
}

// blastThresholds merges the parts' node maxima (see blastMaxima) by
// element-wise max and halves them: Blast's node threshold, half the
// largest weight at the node.
func blastThresholds(maxima [][]float64, n int) []float64 {
	out := make([]float64, n)
	for _, m := range maxima {
		for i, w := range m {
			out[i] = max(out[i], w)
		}
	}
	for i := range out {
		out[i] /= 2
	}
	return out
}

// nodeThresholdKV is one node's pruning threshold, as a threshold pass
// returns it.
type nodeThresholdKV = dataflow.KV[profile.ID, float64]

// denseThresholds spreads per-node thresholds into an array indexed by
// profile ID: the emit pass reads two per edge, and an array load beats a
// hash lookup on the hottest loop. Nodes without edges keep threshold 0.
func denseThresholds(kvs []nodeThresholdKV, n int) []float64 {
	out := make([]float64, n)
	for _, kv := range kvs {
		out[kv.Key] = kv.Value
	}
	return out
}

func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(x, y Edge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}

// forEachEdge weighs every edge of the graph once, from its owner, and
// calls fn with the endpoints in canonical order (a < b). The order of
// the calls is unspecified.
func forEachEdge(g *graphContext, ids []profile.ID, fn func(a, b profile.ID, w float64)) {
	s := g.scratch.get()
	defer g.scratch.put(s)
	for _, id := range g.owners(ids) {
		for _, other := range g.neighbourhood(id, true, s) {
			a, b := min(id, other), max(id, other)
			fn(a, b, g.weight(a, b, s.At(other)))
		}
	}
}
