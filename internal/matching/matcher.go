package matching

import (
	"fmt"
	"sort"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

// Match is a candidate pair labelled as a match, with its similarity
// score. The set of matches forms the similarity graph the entity
// clusterer consumes.
type Match struct {
	A, B  profile.ID
	Score float64
}

// Measure scores the similarity of two profiles in [0, 1].
type Measure interface {
	Score(a, b *profile.Profile) float64
}

// MeasureFunc adapts a plain scoring function to Measure.
type MeasureFunc func(a, b *profile.Profile) float64

// Score calls f(a, b).
func (f MeasureFunc) Score(a, b *profile.Profile) float64 { return f(a, b) }

// CosineMeasure scores profiles with TF-IDF cosine similarity (the CSA
// stand-in).
func CosineMeasure(m *TFIDF) Measure { return MeasureFunc(m.Cosine) }

// AttributeMeasure compares one attribute of each profile with a string
// similarity; useful for schema-aware supervised configurations.
func AttributeMeasure(attrA, attrB string, sim func(a, b string) float64) Measure {
	return MeasureFunc(func(a, b *profile.Profile) float64 {
		return sim(a.Value(attrA), b.Value(attrB))
	})
}

// Ensemble averages several measures with weights. Weights are normalised;
// a nil weight slice averages uniformly.
func Ensemble(measures []Measure, weights []float64) Measure {
	if len(weights) == 0 {
		weights = make([]float64, len(measures))
		for i := range weights {
			weights[i] = 1
		}
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	return MeasureFunc(func(a, b *profile.Profile) float64 {
		var s float64
		for i, m := range measures {
			s += weights[i] * m.Score(a, b)
		}
		if total == 0 {
			return 0
		}
		return s / total
	})
}

// ScorePairs scores every candidate pair without thresholding; used by the
// debug workflow and the supervised tuner.
func ScorePairs(c *profile.Collection, pairs []blocking.Pair, measure Measure) []Match {
	score := scorerFor(c, pairs, measure)
	out := make([]Match, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, Match{A: p.A, B: p.B, Score: score(p.A, p.B)})
	}
	return out
}

// MatchPairs scores candidate pairs and keeps those at or above the
// threshold, sorted by (A, B).
func MatchPairs(c *profile.Collection, pairs []blocking.Pair, measure Measure, threshold float64) []Match {
	scoreOf := scorerFor(c, pairs, measure)
	var out []Match
	for _, p := range pairs {
		score := scoreOf(p.A, p.B)
		if score >= threshold {
			out = append(out, Match{A: p.A, B: p.B, Score: score})
		}
	}
	sortMatches(out)
	return out
}

// MatchPairsDistributed is MatchPairs on the dataflow engine: the measure
// bound to the collection is broadcast and candidate pairs are scored
// partition-parallel, mirroring how SparkER invokes a matcher over the
// blocker's output.
func MatchPairsDistributed(ctx *dataflow.Context, c *profile.Collection, pairs []blocking.Pair,
	measure Measure, threshold float64, numPartitions int) ([]Match, error) {
	bscorer := dataflow.NewBroadcast(ctx, scorerFor(c, pairs, measure))
	rdd := dataflow.Parallelize(ctx, pairs, numPartitions)
	scored := dataflow.FlatMap(rdd, func(p blocking.Pair) []Match {
		score := bscorer.Value()(p.A, p.B)
		if score < threshold {
			return nil
		}
		return []Match{{A: p.A, B: p.B, Score: score}}
	})
	out, err := scored.Collect()
	if err != nil {
		return nil, fmt.Errorf("matching: distributed matching: %w", err)
	}
	sortMatches(out)
	return out, nil
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].A != ms[j].A {
			return ms[i].A < ms[j].A
		}
		return ms[i].B < ms[j].B
	})
}

// LabeledPair is a training example for the supervised threshold tuner.
type LabeledPair struct {
	Pair    blocking.Pair
	IsMatch bool
}

// TuneThreshold sweeps every distinct score of the labelled candidate
// pairs and returns the threshold maximising F1 — the supervised mode of
// the paper, where the user injects ground-truth knowledge instead of
// accepting the default threshold.
func TuneThreshold(c *profile.Collection, labeled []LabeledPair, measure Measure) (threshold, f1 float64) {
	type scored struct {
		score   float64
		isMatch bool
	}
	pairs := make([]blocking.Pair, len(labeled))
	for i, lp := range labeled {
		pairs[i] = lp.Pair
	}
	score := scorerFor(c, pairs, measure)
	items := make([]scored, 0, len(labeled))
	positives := 0
	for _, lp := range labeled {
		items = append(items, scored{score: score(lp.Pair.A, lp.Pair.B), isMatch: lp.IsMatch})
		if lp.IsMatch {
			positives++
		}
	}
	if positives == 0 || len(items) == 0 {
		return 0.5, 0
	}
	sort.Slice(items, func(i, j int) bool { return items[i].score > items[j].score })

	// Descending sweep: at threshold = items[i].score everything up to i is
	// predicted positive.
	bestF1, bestTh := 0.0, items[0].score
	tp := 0
	for i, it := range items {
		if it.isMatch {
			tp++
		}
		if i+1 < len(items) && items[i+1].score == it.score {
			continue // evaluate only at distinct score boundaries
		}
		predicted := i + 1
		precision := float64(tp) / float64(predicted)
		recall := float64(tp) / float64(positives)
		if precision+recall == 0 {
			continue
		}
		f := 2 * precision * recall / (precision + recall)
		if f > bestF1 {
			bestF1, bestTh = f, it.score
		}
	}
	return bestTh, bestF1
}
