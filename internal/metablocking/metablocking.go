// Package metablocking restructures a block collection by pruning the
// least promising comparisons, the core of SparkER's blocker. Profiles are
// nodes of an implicit blocking graph; two nodes are connected when they
// co-occur in at least one block; edges are weighted by co-occurrence
// statistics (optionally scaled by attribute-cluster entropy, the Blast
// [13] contribution); and a pruning rule drops edges below a global or
// node-local threshold. The surviving edges are the candidate pairs handed
// to the entity matcher.
//
// Run and RunDistributed share one implementation: the same pass bodies,
// called on the whole node list sequentially, or once per partition on
// the dataflow engine (the paper's parallel algorithm: partition the
// nodes, broadcast the block index, materialise one node neighbourhood at
// a time). Each pass weighs every undirected edge once, from its owner
// endpoint. A naive distributed baseline that materialises every edge
// through the shuffle quantifies what the broadcast-join design saves.
package metablocking

import (
	"math"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// Scheme selects the edge-weighting function [10].
type Scheme int

const (
	// CBS (Common Blocks Scheme) counts the blocks two profiles share.
	CBS Scheme = iota
	// ECBS scales CBS by the rarity of each profile's block set.
	ECBS
	// JS is the Jaccard similarity of the two profiles' block sets.
	JS
	// EJS scales JS by the rarity of each profile's neighbourhood degree.
	EJS
	// ARCS sums the reciprocal comparison cardinality of shared blocks, so
	// small (distinctive) blocks contribute more.
	ARCS
)

// String names the scheme for reports.
func (s Scheme) String() string {
	switch s {
	case CBS:
		return "CBS"
	case ECBS:
		return "ECBS"
	case JS:
		return "JS"
	case EJS:
		return "EJS"
	case ARCS:
		return "ARCS"
	}
	return "unknown"
}

// UsesBlockCounts reports whether the scheme's weight reads |B_a| and
// |B_b|, the number of blocks of each endpoint (see Weight).
func (s Scheme) UsesBlockCounts() bool { return s == ECBS || s == JS || s == EJS }

// Pruning selects the edge-pruning rule.
type Pruning int

const (
	// WEP (Weighted Edge Pruning) keeps edges at or above the global mean
	// weight; this is the rule Figure 1(c) illustrates.
	WEP Pruning = iota
	// CEP (Cardinality Edge Pruning) keeps the globally top-K edges.
	CEP
	// WNP (Weighted Node Pruning) keeps an edge if it reaches the local
	// mean weight of either endpoint.
	WNP
	// ReciprocalWNP requires the edge to reach both endpoints' means.
	ReciprocalWNP
	// CNP (Cardinality Node Pruning) keeps an edge in the top-k of either
	// endpoint.
	CNP
	// ReciprocalCNP requires the edge in the top-k of both endpoints.
	ReciprocalCNP
	// BlastPruning uses Blast's node threshold: half the maximum edge
	// weight of the endpoint, kept if reached at either endpoint.
	BlastPruning
)

// String names the pruning rule for reports.
func (p Pruning) String() string {
	switch p {
	case WEP:
		return "WEP"
	case CEP:
		return "CEP"
	case WNP:
		return "WNP"
	case ReciprocalWNP:
		return "WNP-reciprocal"
	case CNP:
		return "CNP"
	case ReciprocalCNP:
		return "CNP-reciprocal"
	case BlastPruning:
		return "Blast"
	}
	return "unknown"
}

// EntropyProvider supplies the entropy of the attribute cluster a block's
// key belongs to. looseschema.Partitioning implements it.
type EntropyProvider interface {
	EntropyOf(cluster int) float64
}

// Options configures a meta-blocking run.
type Options struct {
	Scheme  Scheme
	Pruning Pruning
	// Entropy enables Blast's entropy re-weighting: every shared block
	// contributes proportionally to its attribute-cluster entropy instead
	// of uniformly. Nil disables it.
	Entropy EntropyProvider
	// TopK is the K of CEP or the per-node k of CNP; 0 derives the
	// literature defaults (BC/2 for CEP, BC/|P| for CNP).
	TopK int
}

// Edge is a retained comparison with its final weight.
type Edge struct {
	A, B   profile.ID // A < B
	Weight float64
}

// EdgeStats are the statistics of the blocks two profiles share, the
// input every weight scheme is computed from. The batch meta-blocker
// accumulates them per neighbour, the online index per candidate.
type EdgeStats struct {
	CBS        int32   // number of shared blocks
	ARCS       float64 // Σ 1/||b|| over shared blocks
	EntropySum float64 // Σ entropy(cluster(b)) over shared blocks
	EntARCS    float64 // Σ entropy/||b|| over shared blocks
}

// graphContext caches everything the weighting functions need.
type graphContext struct {
	idx        *blocking.Index
	numBlocks  float64
	comparison []float64 // per block: comparison cardinality
	entropy    []float64 // per block: cluster entropy (1 when disabled)
	useEntropy bool
	scheme     Scheme
	// scratch leases flat neighbourhood kernels sized maxID+1; the pool is
	// shared by every dataflow task when the context is broadcast.
	scratch scratchPool
	// EJS support, filled lazily: degrees is dense, indexed by profile ID.
	degrees    []int32
	totalEdges float64
}

func newGraphContext(idx *blocking.Index, opts Options) *graphContext {
	blocks := idx.Blocks.Blocks
	g := &graphContext{
		idx:        idx,
		numBlocks:  float64(len(blocks)),
		comparison: make([]float64, len(blocks)),
		entropy:    make([]float64, len(blocks)),
		useEntropy: opts.Entropy != nil,
		scheme:     opts.Scheme,
	}
	g.scratch.n = int(idx.MaxProfileID()) + 1
	for i := range blocks {
		c := blocks[i].Comparisons()
		if c < 1 {
			c = 1
		}
		g.comparison[i] = float64(c)
		if g.useEntropy {
			g.entropy[i] = opts.Entropy.EntropyOf(blocks[i].ClusterID)
		} else {
			g.entropy[i] = 1
		}
	}
	return g
}

// neighbourhood accumulates the edge statistics of node id into the flat
// scratch (cleared first via its epoch) and returns the touched
// neighbours in first-touch order. With owned set it accumulates only the
// edges id owns, so that a pass weighs each undirected edge once, from
// one endpoint:
//
//   - in a clean-clean task a side-A node owns all its edges (its
//     neighbours are all on side B), and a side-B node owns none;
//   - in a dirty task a node owns the edges to its higher-ID neighbours.
//
// Pairs within the same source of a clean-clean task are never edges:
// each BlockRef carries the profile's side, so the kernel reads the
// opposite side of every block directly instead of scanning for the
// profile's membership.
func (g *graphContext) neighbourhood(id profile.ID, owned bool, s *neighbourScratch) []profile.ID {
	s.Begin()
	col := g.idx.Blocks
	// A member other is skipped when 0 <= id-other < skip: the node
	// itself, or, for a dirty node's owned edges, the node and every
	// lower ID.
	skip := uint32(1)
	if owned && !col.CleanClean {
		skip = uint32(id) + 1
	}
	for _, ref := range g.idx.BlocksOf(id) {
		bi := ref.Ordinal()
		b := &col.Blocks[bi]
		others := b.A
		if col.CleanClean {
			if !ref.SideB() {
				others = b.B
			} else if owned {
				break
			}
		}
		arcs := 1 / g.comparison[bi]
		ent := g.entropy[bi]
		entArcs := ent / g.comparison[bi]
		for _, other := range others {
			if uint32(id-other) < skip {
				continue
			}
			a := s.Slot(other)
			a.CBS++
			a.ARCS += arcs
			a.EntropySum += ent
			a.EntARCS += entArcs
		}
	}
	return s.Touched()
}

// owners lists the nodes of ids that own edges (see neighbourhood): the
// side-A nodes of a clean-clean task, every node of a dirty one. The
// owner passes partition this list, not ids, so that no task is handed
// only nodes that own nothing.
func (g *graphContext) owners(ids []profile.ID) []profile.ID {
	if !g.idx.Blocks.CleanClean {
		return ids
	}
	out := make([]profile.ID, 0, len(ids)/2)
	for _, id := range ids {
		if refs := g.idx.BlocksOf(id); len(refs) > 0 && !refs[0].SideB() {
			out = append(out, id)
		}
	}
	return out
}

// neighbourWeight is one weighted edge endpoint, used wherever weights
// must be summed in a deterministic order: float addition is not
// associative, and the sequential and distributed implementations must
// produce bitwise-identical thresholds.
type neighbourWeight struct {
	id profile.ID
	w  float64
}

// weightedNeighbours materialises the full neighbourhood of id and
// returns its weighted edges sorted by neighbour ID, for the consumers
// that sum weights. The returned slice aliases the scratch's reusable
// buffer: consume it before the next call on the same scratch.
func (g *graphContext) weightedNeighbours(id profile.ID, s *neighbourScratch) []neighbourWeight {
	g.neighbourhood(id, false, s)
	s.SortTouched()
	out := s.nws[:0]
	for _, other := range s.Touched() {
		out = append(out, neighbourWeight{id: other, w: g.weight(id, other, s.At(other))})
	}
	s.nws = out
	return out
}

// weight is the scheme weight of the undirected edge {a, b}. It is
// computed in one endpoint order, lower ID first, so that the edge
// weighs the same bits whichever endpoint materialised it: ECBS's
// product is not symmetric in floating point.
func (g *graphContext) weight(a, b profile.ID, st *EdgeStats) float64 {
	if b < a {
		a, b = b, a
	}
	var blocksA, blocksB int
	if g.scheme.UsesBlockCounts() {
		blocksA, blocksB = g.idx.NumBlocksOf(a), g.idx.NumBlocksOf(b)
	}
	degreeFactor := 1.0
	if g.scheme == EJS {
		degreeFactor = LogRatio(g.totalEdges, float64(g.degrees[a])) *
			LogRatio(g.totalEdges, float64(g.degrees[b]))
	}
	return Weight(g.scheme, g.useEntropy, st, blocksA, blocksB, g.numBlocks, degreeFactor)
}

// Weight is the scheme weight of the edge between profiles a and b, a
// pure function of:
//
//   - st, the statistics of the blocks a and b share;
//   - blocksA and blocksB, |B_a| and |B_b| (ECBS, JS, EJS);
//   - numBlocks, the number of blocks in the collection (ECBS);
//   - degreeFactor, EJS's LogRatio(|E|, |v_a|)·LogRatio(|E|, |v_b|) over
//     the node degrees of the full blocking graph.
//
// With entropy on, counting schemes replace each shared block's unit
// contribution with the block's cluster entropy, and ratio schemes are
// scaled by the mean entropy of the shared blocks — the re-weighting
// Figure 2(c) shows. The batch meta-blocker and the online index both
// weigh through Weight and differ only in inputs: an online index keeps
// no graph degrees, so it passes a degree factor of 1, and its EJS
// weighs as JS. An unknown scheme weighs 0.
func Weight(s Scheme, entropy bool, st *EdgeStats, blocksA, blocksB int, numBlocks, degreeFactor float64) float64 {
	cbs := float64(st.CBS)
	if cbs == 0 {
		return 0
	}
	var w float64
	switch s {
	case CBS:
		if entropy {
			return st.EntropySum
		}
		return cbs
	case ECBS:
		w = cbs * LogRatio(numBlocks, float64(blocksA)) * LogRatio(numBlocks, float64(blocksB))
	case JS, EJS:
		union := float64(blocksA) + float64(blocksB) - cbs
		if union <= 0 {
			return 0
		}
		w = cbs / union
		if s == EJS {
			w *= degreeFactor
		}
	case ARCS:
		if entropy {
			return st.EntARCS
		}
		return st.ARCS
	default:
		return 0
	}
	if entropy {
		w *= st.EntropySum / cbs
	}
	return w
}

// LogRatio is the clamped log10(total/part) factor of the ECBS and EJS
// schemes.
func LogRatio(total, part float64) float64 {
	if part <= 0 || total <= 0 {
		return 0
	}
	v := math.Log10(total / part)
	if v < 0 {
		return 0
	}
	return v
}

// needsDegrees reports whether the scheme requires the EJS degree pass.
func needsDegrees(s Scheme) bool { return s == EJS }

// computeDegrees fills g.degrees and g.totalEdges with the node degrees of
// the full (unpruned) blocking graph, counting each edge once, at both
// endpoints, from its owner.
func (g *graphContext) computeDegrees(ids []profile.ID) {
	g.degrees = make([]int32, g.scratch.n)
	s := g.scratch.get()
	defer g.scratch.put(s)
	edges := 0
	for _, id := range g.owners(ids) {
		nb := g.neighbourhood(id, true, s)
		g.degrees[id] += int32(len(nb))
		for _, other := range nb {
			g.degrees[other]++
		}
		edges += len(nb)
	}
	g.totalEdges = max(float64(edges), 1)
}

// defaultTopK derives the literature defaults for the cardinality rules.
func defaultTopK(idx *blocking.Index, p Pruning) int {
	assignments := idx.Blocks.TotalAssignments()
	switch p {
	case CEP:
		k := int(assignments / 2)
		if k < 1 {
			k = 1
		}
		return k
	case CNP, ReciprocalCNP:
		n := idx.NumProfiles()
		if n == 0 {
			return 1
		}
		k := int(assignments) / n
		if k < 1 {
			k = 1
		}
		return k
	}
	return 1
}
