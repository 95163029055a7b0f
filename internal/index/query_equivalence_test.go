package index

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// This file retains the pre-flat-kernel map-based candidate accumulator
// as a reference and proves the query hot path's dense scratch and its
// bounded top-k selection are an exact drop-in: candidate sets, order,
// weights and the pruned count must be bitwise-identical for every
// scheme × prune rule × task type, with and without entropy weighting.

// refCandidates replicates Query on the historical map accumulator path:
// weigh every candidate, sort the full list, then cut it by the prune
// rule. It returns the surviving candidates and how many were pruned.
func refCandidates(x *Index, p *profile.Profile) ([]Candidate, int) {
	if !x.clean && p.SourceID != 0 {
		q := *p
		q.SourceID = 0
		p = &q
	}
	keys := x.opts.KeysOf(p)

	selfID := profile.ID(-1)
	if id, ok := x.lookupOrig(origKey(p)); ok {
		selfID = id
	}
	maxSize := int(x.cfg.MaxBlockFraction * float64(x.numProfiles.Load()))
	if maxSize < 2 {
		maxSize = 2
	}

	type probe struct {
		key  string
		sh   *shard
		size int
	}
	probes := make([]probe, 0, len(keys))
	for _, kt := range keys {
		s := x.shardFor(kt.Key)
		s.mu.RLock()
		pl := s.postings[kt.Key]
		sz := 0
		if pl != nil {
			sz = pl.size()
		}
		s.mu.RUnlock()
		if pl == nil || sz > maxSize {
			continue
		}
		probes = append(probes, probe{key: kt.Key, sh: s, size: sz})
	}
	liveKeys := len(probes)
	if x.cfg.FilterRatio < 1 && len(probes) > 0 {
		sort.SliceStable(probes, func(i, j int) bool {
			if probes[i].size != probes[j].size {
				return probes[i].size < probes[j].size
			}
			return probes[i].key < probes[j].key
		})
		keep := int(math.Ceil(x.cfg.FilterRatio * float64(len(probes))))
		if keep < 1 {
			keep = 1
		}
		probes = probes[:keep]
	}

	acc := make(map[profile.ID]candAcc)
	useEntropy := x.cfg.Entropy != nil
	for _, pr := range probes {
		s := pr.sh
		s.mu.RLock()
		pl := s.postings[pr.key]
		if pl == nil {
			s.mu.RUnlock()
			continue
		}
		entropy := 1.0
		if useEntropy {
			entropy = x.cfg.Entropy.EntropyOf(pl.cluster)
		}
		card := pl.comparisons(x.clean)
		visit := func(ids []profile.ID) {
			for _, id := range ids {
				if id == selfID {
					continue
				}
				a := acc[id]
				a.CBS++
				a.ARCS += 1 / card
				a.EntropySum += entropy
				a.EntARCS += entropy / card
				acc[id] = a
			}
		}
		if x.clean {
			if p.SourceID == 1 {
				visit(pl.a)
			} else {
				visit(pl.b)
			}
		} else {
			visit(pl.a)
		}
		s.mu.RUnlock()
	}

	numBlocks := float64(x.numBlocks.Load())
	needsCandKeys := false
	switch x.cfg.Scheme {
	case metablocking.ECBS, metablocking.JS, metablocking.EJS:
		needsCandKeys = true
	}
	out := make([]Candidate, 0, len(acc))
	for id, a := range acc {
		a := a
		candKeys := 0
		if needsCandKeys {
			if sp := x.byID[id]; sp != nil {
				candKeys = len(sp.keys)
			}
		}
		out = append(out, Candidate{ID: id, Weight: x.weight(&a.EdgeStats, liveKeys, candKeys, numBlocks), SharedKeys: int(a.CBS)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	before := len(out)
	switch x.cfg.Prune {
	case PruneTopK:
		if len(out) > x.cfg.MaxCandidates {
			out = out[:x.cfg.MaxCandidates]
		}
	case PruneMean:
		var sum float64
		for _, c := range out {
			sum += c.Weight
		}
		mean := sum / float64(len(out))
		var keep []Candidate
		for _, c := range out {
			if c.Weight >= mean {
				keep = append(keep, c)
			}
		}
		out = keep
	}
	return out, before - len(out)
}

// lenClustering assigns attribute clusters by name length, giving the
// entropy path varied cluster IDs without a full loose-schema run.
type lenClustering struct{}

func (lenClustering) ClusterOf(_ int, attribute string) int { return len(attribute) % 3 }

type rampEntropy struct{}

func (rampEntropy) EntropyOf(cluster int) float64 { return 0.25 + 0.4*float64(cluster+2) }

// synthQueryProfiles builds overlapping-token profiles across sources.
func synthQueryProfiles(n, sources int, seed uint64) []profile.Profile {
	next := seed*2654435761 + 1
	rnd := func(mod int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(mod))
	}
	out := make([]profile.Profile, 0, n)
	for i := 0; i < n; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("p%d", i), SourceID: i % sources}
		name := fmt.Sprintf("tok%d tok%d shared%d", rnd(12), rnd(12), rnd(4))
		p.Add("name", name)
		p.Add("desc", fmt.Sprintf("word%d common", rnd(8)))
		out = append(out, p)
	}
	return out
}

func TestQueryMatchesMapReference(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		for _, useEntropy := range []bool{false, true} {
			for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
				// Top-k runs at k below the ~30 candidates a query has
				// here (1, 3, 10) and above it (1000 keeps them all);
				// mean and none ignore k.
				type pruneCase struct {
					rule PruneRule
					k    int
				}
				cases := []pruneCase{{PruneTopK, 1}, {PruneTopK, 3}, {PruneTopK, 10}, {PruneTopK, 1000}, {PruneMean, 0}, {PruneNone, 0}}
				for _, pc := range cases {
					cfg := DefaultConfig()
					cfg.Scheme = scheme
					cfg.Prune = pc.rule
					cfg.MaxCandidates = pc.k
					if useEntropy {
						cfg.Clustering = lenClustering{}
						cfg.Entropy = rampEntropy{}
					}
					x := New(clean, cfg)
					for _, p := range synthQueryProfiles(60, sources, 5) {
						if _, _, err := x.Upsert(p); err != nil {
							t.Fatal(err)
						}
					}
					label := fmt.Sprintf("clean=%v entropy=%v %v/%v k=%d", clean, useEntropy, scheme, pc.rule, pc.k)
					for _, p := range synthQueryProfiles(60, sources, 5) {
						p := p
						want, wantPruned := refCandidates(x, &p)
						res := x.Query(&p)
						got := res.Candidates
						if len(want) != len(got) || res.Pruned != wantPruned {
							t.Fatalf("%s query %s: %d candidates, %d pruned; reference %d, %d pruned",
								label, p.OriginalID, len(got), res.Pruned, len(want), wantPruned)
						}
						for i := range want {
							if want[i].ID != got[i].ID || want[i].SharedKeys != got[i].SharedKeys ||
								math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
								t.Fatalf("%s query %s candidate %d: %+v vs reference %+v",
									label, p.OriginalID, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestResolveFastPathMatchesJaccardMeasure proves the sorted-set scorer
// is bitwise-identical to calling the measure on both profiles per
// comparison. Wrapping a SetMeasure's Score in a MeasureFunc hides the
// set structure and forces the generic path.
func TestResolveFastPathMatchesJaccardMeasure(t *testing.T) {
	tok := DefaultConfig().Tokenizer
	for _, tc := range []struct {
		name string
		fast matching.Measure // nil: the default Jaccard
		slow matching.Measure
	}{
		{"jaccard", nil, matching.MeasureFunc(matching.JaccardMeasure(tok).Score)},
		{"dice", matching.DiceMeasure(tok), matching.MeasureFunc(matching.DiceMeasure(tok).Score)},
	} {
		fastCfg := DefaultConfig()
		fastCfg.Measure = tc.fast
		slowCfg := DefaultConfig()
		slowCfg.Measure = tc.slow
		slowCfg.MatchThreshold = -1 // keep every scored candidate
		fastCfg.MatchThreshold = -1
		fast := New(false, fastCfg)
		slow := New(false, slowCfg)
		for _, p := range synthQueryProfiles(80, 1, 13) {
			if _, _, err := fast.Upsert(p); err != nil {
				t.Fatal(err)
			}
			if _, _, err := slow.Upsert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range synthQueryProfiles(80, 1, 13) {
			p := p
			fr := fast.Resolve(&p)
			sr := slow.Resolve(&p)
			if fr.Comparisons != sr.Comparisons || len(fr.Matches) != len(sr.Matches) {
				t.Fatalf("%s query %s: fast %d matches/%d comparisons, slow %d/%d",
					tc.name, p.OriginalID, len(fr.Matches), fr.Comparisons, len(sr.Matches), sr.Comparisons)
			}
			for i := range fr.Matches {
				if fr.Matches[i].B != sr.Matches[i].B ||
					math.Float64bits(fr.Matches[i].Score) != math.Float64bits(sr.Matches[i].Score) {
					t.Fatalf("%s query %s match %d: fast %+v vs slow %+v",
						tc.name, p.OriginalID, i, fr.Matches[i], sr.Matches[i])
				}
			}
		}
	}
}

// TestQueryScratchGrowsWithUpserts interleaves queries with upserts that
// extend the ID space, exercising the scratch ensure/grow path.
func TestQueryScratchGrowsWithUpserts(t *testing.T) {
	x := New(false, DefaultConfig())
	batch := synthQueryProfiles(120, 1, 9)
	for i, p := range batch {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
		q := batch[i/2]
		want, wantPruned := refCandidates(x, &q)
		res := x.Query(&q)
		got := res.Candidates
		if len(want) != len(got) || res.Pruned != wantPruned {
			t.Fatalf("after %d upserts: %d candidates, %d pruned; reference %d, %d pruned",
				i+1, len(got), res.Pruned, len(want), wantPruned)
		}
		for j := range want {
			if want[j].ID != got[j].ID || math.Float64bits(want[j].Weight) != math.Float64bits(got[j].Weight) {
				t.Fatalf("after %d upserts candidate %d: %+v vs %+v", i+1, j, got[j], want[j])
			}
		}
	}
}

// TestTopKSelectMatchesFullSort pins the bounded top-k selection against
// the full-list path on the LSH probe weights the map reference does not
// model: a PruneTopK index must answer the PruneNone ranking cut at k,
// with the same pruned and probe-only counts, for token and probe-only
// (Jaccard- and bucket-weighted) candidates alike.
func TestTopKSelectMatchesFullSort(t *testing.T) {
	lshModes := []struct {
		name string
		lsh  LSHConfig
	}{
		{"off", LSHConfig{}},
		{"union-jaccard", LSHConfig{Policy: ProbeUnion, Threshold: 0.3}},
		{"union-buckets", LSHConfig{Policy: ProbeUnion, Threshold: 0.3, Weight: LSHWeightBuckets}},
	}
	profiles := synthQueryProfiles(80, 1, 23)
	for _, mode := range lshModes {
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
			build := func(rule PruneRule, k int) *Index {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.LSH = mode.lsh
				cfg.Prune = rule
				cfg.MaxCandidates = k
				x := New(false, cfg)
				for _, p := range profiles {
					if _, _, err := x.Upsert(p); err != nil {
						t.Fatal(err)
					}
				}
				return x
			}
			full := build(PruneNone, 0)
			for _, k := range []int{1, 3, 10} {
				top := build(PruneTopK, k)
				label := fmt.Sprintf("lsh=%s %v k=%d", mode.name, scheme, k)
				probeOnly := 0
				for _, p := range profiles {
					p := p
					want := full.Query(&p)
					got := top.Query(&p)
					cut := want.Candidates[:min(k, len(want.Candidates))]
					if len(got.Candidates) != len(cut) || got.Pruned != len(want.Candidates)-len(cut) ||
						got.LSHCandidates != want.LSHCandidates {
						t.Fatalf("%s query %s: %d candidates, %d pruned, %d probe-only; full list %d, %d probe-only",
							label, p.OriginalID, len(got.Candidates), got.Pruned, got.LSHCandidates,
							len(want.Candidates), want.LSHCandidates)
					}
					for i, c := range cut {
						g := got.Candidates[i]
						if g.ID != c.ID || g.SharedKeys != c.SharedKeys || g.SharedBuckets != c.SharedBuckets ||
							math.Float64bits(g.Weight) != math.Float64bits(c.Weight) {
							t.Fatalf("%s query %s candidate %d: %+v vs full list %+v", label, p.OriginalID, i, g, c)
						}
					}
					probeOnly += want.LSHCandidates
				}
				if mode.lsh.Policy != ProbeOff && probeOnly == 0 {
					t.Fatalf("%s: the probe surfaced no probe-only candidates", label)
				}
			}
		}
	}
}
