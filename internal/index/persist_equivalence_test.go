package index

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// This file proves a restored snapshot is an exact stand-in for the live
// index: after save → load, Query candidate sets (IDs, shared-key counts
// and weight bits) and Resolve matches (IDs and score bits) must be
// identical for every weight scheme × pruning rule × clean/dirty task ×
// entropy setting — the same grid the flat-kernel equivalence harness
// pins against the map reference.

func TestPersistedQueryEquivalence(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		for _, useEntropy := range []bool{false, true} {
			for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
				for _, rule := range []PruneRule{PruneTopK, PruneMean, PruneNone} {
					cfg := DefaultConfig()
					cfg.Scheme = scheme
					cfg.Prune = rule
					cfg.MatchThreshold = -1 // keep every scored candidate
					if useEntropy {
						// Clustering and entropy are code, not data: the
						// load-side cfg must carry the same implementations.
						cfg.Clustering = lenClustering{}
						cfg.Entropy = rampEntropy{}
					}
					label := fmt.Sprintf("clean=%v entropy=%v %v/%v", clean, useEntropy, scheme, rule)

					x := New(clean, cfg)
					for _, p := range synthQueryProfiles(60, sources, 5) {
						if _, _, err := x.Upsert(p); err != nil {
							t.Fatal(err)
						}
					}
					y := saveLoad(t, x, cfg)

					for _, p := range synthQueryProfiles(60, sources, 5) {
						p := p
						want := x.Query(&p).Candidates
						got := y.Query(&p).Candidates
						if len(want) != len(got) {
							t.Fatalf("%s query %s: %d candidates, live index %d",
								label, p.OriginalID, len(got), len(want))
						}
						for i := range want {
							if want[i].ID != got[i].ID || want[i].SharedKeys != got[i].SharedKeys ||
								math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
								t.Fatalf("%s query %s candidate %d: %+v vs live %+v",
									label, p.OriginalID, i, got[i], want[i])
							}
						}

						wr := x.Resolve(&p)
						gr := y.Resolve(&p)
						if wr.Comparisons != gr.Comparisons || len(wr.Matches) != len(gr.Matches) {
							t.Fatalf("%s resolve %s: loaded %d matches/%d comparisons, live %d/%d",
								label, p.OriginalID, len(gr.Matches), gr.Comparisons,
								len(wr.Matches), wr.Comparisons)
						}
						for i := range wr.Matches {
							if wr.Matches[i].B != gr.Matches[i].B ||
								math.Float64bits(wr.Matches[i].Score) != math.Float64bits(gr.Matches[i].Score) {
								t.Fatalf("%s resolve %s match %d: %+v vs live %+v",
									label, p.OriginalID, i, gr.Matches[i], wr.Matches[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestPersistedEquivalenceAfterChurn replays upsert churn (replacements
// that tombstone postings and inserts that extend the ID space) before
// the save, so the snapshot captures posting lists in their live,
// churned order — and queries still agree bit for bit.
func TestPersistedEquivalenceAfterChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prune = PruneNone
	cfg.MatchThreshold = -1
	x := New(false, cfg)
	batch := synthQueryProfiles(80, 1, 9)
	for _, p := range batch {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Replace every third profile with shuffled token content, twice.
	for round := 0; round < 2; round++ {
		alt := synthQueryProfiles(80, 1, uint64(21+round))
		for i := 0; i < len(batch); i += 3 {
			p := alt[i]
			p.OriginalID = batch[i].OriginalID
			if _, created, err := x.Upsert(p); err != nil || created {
				t.Fatalf("churn replace %d: created=%v err=%v", i, created, err)
			}
		}
	}
	y := saveLoad(t, x, cfg)
	for _, p := range synthQueryProfiles(80, 1, 9) {
		p := p
		want := x.Query(&p).Candidates
		got := y.Query(&p).Candidates
		if len(want) != len(got) {
			t.Fatalf("query %s: %d candidates, live %d", p.OriginalID, len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID ||
				math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
				t.Fatalf("query %s candidate %d: %+v vs live %+v", p.OriginalID, i, got[i], want[i])
			}
		}
	}
}

// TestPersistedCustomMeasure round-trips an index configured with a
// non-default measure: a SetMeasure (its sorted bags are serialized) and
// a plain MeasureFunc (no bags are serialized). The loaded index scores
// through the same measure implementation.
func TestPersistedCustomMeasure(t *testing.T) {
	tok := DefaultConfig().Tokenizer
	for _, measure := range []matching.Measure{
		matching.DiceMeasure(tok),
		matching.MeasureFunc(matching.DiceMeasure(tok).Score),
	} {
		cfg := DefaultConfig()
		cfg.Measure = measure
		cfg.MatchThreshold = -1
		x := New(false, cfg)
		for _, p := range synthQueryProfiles(40, 1, 17) {
			if _, _, err := x.Upsert(p); err != nil {
				t.Fatal(err)
			}
		}
		y := saveLoad(t, x, cfg)
		for _, p := range synthQueryProfiles(40, 1, 17) {
			p := p
			wr, gr := x.Resolve(&p), y.Resolve(&p)
			if len(wr.Matches) != len(gr.Matches) {
				t.Fatalf("%T resolve %s: %d matches, live %d", measure, p.OriginalID, len(gr.Matches), len(wr.Matches))
			}
			for i := range wr.Matches {
				if wr.Matches[i].B != gr.Matches[i].B ||
					math.Float64bits(wr.Matches[i].Score) != math.Float64bits(gr.Matches[i].Score) {
					t.Fatalf("%T resolve %s match %d diverged", measure, p.OriginalID, i)
				}
			}
		}
	}
}

// TestPersistedUnsortedBags loads a snapshot whose bags are not sorted,
// as files written before bags were kept sorted store them in first-seen
// order: Load must sort them, so Resolve answers stay byte-identical to
// the index that wrote the file.
func TestPersistedUnsortedBags(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MatchThreshold = -1
	x := New(false, cfg)
	queries := synthQueryProfiles(40, 1, 23)
	for _, p := range queries {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	answer := func(idx *Index, p *profile.Profile) []byte {
		r := idx.Resolve(p)
		b, err := json.Marshal(struct {
			Matches     []matching.Match
			Comparisons int
		}{r.Matches, r.Comparisons})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := make([][]byte, len(queries))
	for i := range queries {
		want[i] = answer(x, &queries[i])
	}
	reversed := 0
	for _, sp := range x.byID {
		if len(sp.bag) > 1 {
			slices.Reverse(sp.bag)
			reversed++
		}
	}
	if reversed == 0 {
		t.Fatal("no multi-token bag to reverse")
	}
	y := saveLoad(t, x, cfg)
	for i := range queries {
		if got := answer(y, &queries[i]); !bytes.Equal(got, want[i]) {
			t.Fatalf("resolve %s after loading unsorted bags:\n got %s\nwant %s", queries[i].OriginalID, got, want[i])
		}
	}
}

// TestPersistedBagFallback saves under a plain MeasureFunc (no bags in
// the file) and loads under the default config: the loaded index must
// recompute the cached bags and agree with a directly built default
// index bit for bit.
func TestPersistedBagFallback(t *testing.T) {
	saveCfg := DefaultConfig()
	saveCfg.Measure = matching.MeasureFunc(matching.DiceMeasure(saveCfg.Tokenizer).Score)
	saveCfg.MatchThreshold = -1
	x := New(false, saveCfg)
	defCfg := DefaultConfig()
	defCfg.MatchThreshold = -1
	ref := New(false, defCfg)
	for _, p := range synthQueryProfiles(40, 1, 19) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ref.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "bagless.snap")
	if _, err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	y, err := Load(path, defCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range synthQueryProfiles(40, 1, 19) {
		p := p
		wr, gr := ref.Resolve(&p), y.Resolve(&p)
		if len(wr.Matches) != len(gr.Matches) {
			t.Fatalf("resolve %s: %d matches, reference %d", p.OriginalID, len(gr.Matches), len(wr.Matches))
		}
		for i := range wr.Matches {
			if wr.Matches[i].B != gr.Matches[i].B ||
				math.Float64bits(wr.Matches[i].Score) != math.Float64bits(gr.Matches[i].Score) {
				t.Fatalf("resolve %s match %d diverged from recomputed-bag reference", p.OriginalID, i)
			}
		}
	}
}
