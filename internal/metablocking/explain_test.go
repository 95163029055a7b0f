package metablocking

import (
	"fmt"
	"math"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// TestExplainFigure2 reconstructs the Figure 2(c) decisions pair by pair.
func TestExplainFigure2(t *testing.T) {
	c := figureProfiles()
	blocks := blocking.TokenBlocking(c, blocking.Options{Clustering: figure2Partitioning{}})
	idx := blocking.BuildIndex(blocks)
	opts := Options{Scheme: CBS, Pruning: WEP, Entropy: figure2Partitioning{}}

	// p1-p3 share blast_1, blocking_1, simonini_2 → weight 1.6.
	ex := Explain(idx, opts, 0, 2)
	if len(ex.CommonBlocks) != 3 {
		t.Fatalf("common blocks: %+v", ex.CommonBlocks)
	}
	if math.Abs(ex.Weight-1.6) > 1e-9 {
		t.Fatalf("weight %f", ex.Weight)
	}
	keys := map[string]float64{}
	for _, cb := range ex.CommonBlocks {
		keys[cb.Key] = cb.Entropy
	}
	if keys["blast_1"] != 0.4 || keys["simonini_2"] != 0.8 || keys["blocking_1"] != 0.4 {
		t.Fatalf("entropies: %v", keys)
	}

	// p1-p4 share only blast_1 → weight 0.4.
	ex14 := Explain(idx, opts, 0, 3)
	if len(ex14.CommonBlocks) != 1 || math.Abs(ex14.Weight-0.4) > 1e-9 {
		t.Fatalf("p1-p4: %+v", ex14)
	}
}

// TestExplainBlastDecision checks the node thresholds and retention flag
// against the actual Run output.
func TestExplainBlastDecision(t *testing.T) {
	idx := testIndex(40, 31)
	opts := Options{Scheme: JS, Pruning: BlastPruning}
	retained := map[[2]profile.ID]bool{}
	for _, e := range Run(idx, opts) {
		retained[[2]profile.ID{e.A, e.B}] = true
	}
	g := newGraphContext(idx, opts)
	checked := 0
	forEachEdge(g, idx.ProfileIDs(), func(a, b profile.ID, _ float64) {
		if checked >= 50 {
			return
		}
		checked++
		ex := Explain(idx, opts, a, b)
		if ex.Retained != retained[[2]profile.ID{a, b}] {
			t.Fatalf("pair (%d,%d): explanation says %v, Run says %v",
				a, b, ex.Retained, retained[[2]profile.ID{a, b}])
		}
		if ex.Retained && ex.Weight < ex.ThresholdA && ex.Weight < ex.ThresholdB {
			t.Fatalf("pair (%d,%d) retained below both thresholds: %+v", a, b, ex)
		}
	})
	if checked == 0 {
		t.Fatal("no edges checked")
	}
}

func TestExplainUnrelatedPair(t *testing.T) {
	idx := testIndex(20, 32)
	// Find two profiles with no shared block.
	ids := idx.ProfileIDs()
	g := newGraphContext(idx, Options{Scheme: CBS})
	s := g.scratch.get()
	defer g.scratch.put(s)
	for _, a := range ids {
		g.neighbourhood(a, false, s)
		for _, b := range ids {
			if b <= a {
				continue
			}
			if s.Lookup(b) == nil {
				ex := Explain(idx, Options{Scheme: CBS, Pruning: WNP}, a, b)
				if len(ex.CommonBlocks) != 0 || ex.Weight != 0 || ex.Retained {
					t.Fatalf("unrelated pair explained as related: %+v", ex)
				}
				return
			}
		}
	}
	t.Skip("graph is complete; no unrelated pair to test")
}

func TestExplainCanonicalisesOrder(t *testing.T) {
	idx := testIndex(20, 33)
	opts := Options{Scheme: CBS, Pruning: WNP}
	ids := idx.ProfileIDs()
	ex1 := Explain(idx, opts, ids[0], ids[1])
	ex2 := Explain(idx, opts, ids[1], ids[0])
	if ex1.A != ex2.A || ex1.B != ex2.B || ex1.Weight != ex2.Weight {
		t.Fatalf("order changed the explanation: %+v vs %+v", ex1, ex2)
	}
}

// TestExplainBlastMatchesRun checks Explain against Run's Blast pass on
// every edge of the graph, kept or dropped: the same weight, the same
// edge-wise node thresholds, and the same retention decision.
func TestExplainBlastMatchesRun(t *testing.T) {
	for _, clean := range []bool{false, true} {
		idx := clusteredTestIndex(40, 23, clean)
		ids := idx.ProfileIDs()
		for _, useEntropy := range []bool{false, true} {
			for _, s := range allSchemes() {
				opts := Options{Scheme: s, Pruning: BlastPruning}
				if useEntropy {
					opts.Entropy = rampEntropy{}
				}
				retained := map[[2]profile.ID]bool{}
				for _, e := range Run(idx, opts) {
					retained[[2]profile.ID{e.A, e.B}] = true
				}
				g := newGraphContext(idx, opts)
				if needsDegrees(s) {
					g.computeDegrees(ids)
				}
				thresholds := blastThresholds(blastMaxima(g, g.owners(ids)), g.scratch.n)
				kept, dropped := 0, 0
				forEachEdge(g, ids, func(a, b profile.ID, w float64) {
					ex := Explain(idx, opts, a, b)
					label := fmt.Sprintf("clean=%v entropy=%v %v (%d,%d)", clean, useEntropy, s, a, b)
					if math.Float64bits(ex.Weight) != math.Float64bits(w) {
						t.Fatalf("%s: explained weight %g, Run weighs %g", label, ex.Weight, w)
					}
					if math.Float64bits(ex.ThresholdA) != math.Float64bits(thresholds[a]) ||
						math.Float64bits(ex.ThresholdB) != math.Float64bits(thresholds[b]) {
						t.Fatalf("%s: explained thresholds (%g, %g), Run's (%g, %g)",
							label, ex.ThresholdA, ex.ThresholdB, thresholds[a], thresholds[b])
					}
					if ex.Retained != retained[[2]profile.ID{a, b}] {
						t.Fatalf("%s: explanation says retained=%v, Run says %v", label, ex.Retained, !ex.Retained)
					}
					if ex.Retained {
						kept++
					} else {
						dropped++
					}
				})
				if kept == 0 || dropped == 0 {
					t.Fatalf("clean=%v entropy=%v %v: %d kept, %d dropped; want both", clean, useEntropy, s, kept, dropped)
				}
			}
		}
	}
}
