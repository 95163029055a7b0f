package matching

import (
	"cmp"
	"slices"

	"sparker/internal/blocking"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// setFormula selects what a SetMeasure computes from |A∩B|, |A| and |B|.
type setFormula uint8

const (
	jaccard setFormula = iota
	dice
	overlap
)

// SetMeasure scores two profiles by a formula over their distinct
// whole-profile token sets: Jaccard (JaccardMeasure) or Dice
// (DiceMeasure); OverlapTokens shares the formula code. Its scores depend
// only on the integer cardinalities |A∩B|, |A| and |B|, so they can be
// computed from sets built once per profile instead of once per pair:
// MatchPairs, MatchPairsDistributed, ScorePairs and TuneThreshold bind a
// SetMeasure to the collection once per call, and the online index keeps
// each stored profile's Set from upsert time. Every path yields the same
// bits as Score.
type SetMeasure struct {
	tok     tokenize.Options
	formula setFormula
}

// JaccardMeasure scores profiles by the Jaccard similarity of their
// whole-profile token bags, the unsupervised default.
func JaccardMeasure(tok tokenize.Options) SetMeasure { return SetMeasure{tok: tok, formula: jaccard} }

// DiceMeasure scores profiles with the Dice coefficient of their bags.
func DiceMeasure(tok tokenize.Options) SetMeasure { return SetMeasure{tok: tok, formula: dice} }

// Score tokenizes both profiles and scores their sets. Scoring many pairs
// through the package's bulk entry points tokenizes each profile once
// instead.
func (m SetMeasure) Score(a, b *profile.Profile) float64 {
	return m.ofSets(m.Set(a), m.Set(b))
}

// Tokenizer returns the options the measure tokenizes profiles with.
func (m SetMeasure) Tokenizer() tokenize.Options { return m.tok }

// Set returns the distinct whole-profile tokens of p in ascending order,
// the operand IntersectSorted expects.
func (m SetMeasure) Set(p *profile.Profile) []string {
	return SortedSet(ProfileBag(p, m.tok))
}

// SetInto is Set built in buf's storage through a pooled tokenizer
// scratch, for hot paths that build a set per call: once the pool is
// warm and buf large enough it allocates nothing. The result aliases buf.
func (m SetMeasure) SetInto(buf []string, p *profile.Profile) []string {
	sc := tokenize.GetScratch()
	buf = buf[:0]
	for _, kv := range p.Attributes {
		buf = m.tok.AppendTokens(buf, kv.Value, sc)
	}
	tokenize.PutScratch(sc)
	return SortedSet(buf)
}

// Of applies the measure's formula to the cardinalities of two sets and
// their intersection. An empty denominator scores 0.
func (m SetMeasure) Of(inter, na, nb int) float64 {
	switch m.formula {
	case dice:
		if na+nb == 0 {
			return 0
		}
		return 2 * float64(inter) / float64(na+nb)
	case overlap:
		minLen := min(na, nb)
		if minLen == 0 {
			return 0
		}
		return float64(inter) / float64(minLen)
	}
	union := na + nb - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ofSets scores two ascending duplicate-free sets.
func (m SetMeasure) ofSets(a, b []string) float64 {
	return m.Of(IntersectSorted(a, b), len(a), len(b))
}

// ofBags scores two token multisets without modifying them.
func (m SetMeasure) ofBags(a, b []string) float64 {
	return m.ofSets(SortedSet(slices.Clone(a)), SortedSet(slices.Clone(b)))
}

// SortedSet sorts tokens in place and drops duplicates, returning the
// distinct tokens in ascending order (a prefix of the input's backing
// array).
func SortedSet(tokens []string) []string {
	slices.Sort(tokens)
	return slices.Compact(tokens)
}

// IntersectSorted counts the elements two ascending, duplicate-free
// slices share, in one merge pass.
func IntersectSorted[T cmp.Ordered](a, b []T) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		// Equality first: for strings it is a length check before any
		// byte compare, and it leaves one ordered compare per step.
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// boundSets is a SetMeasure bound to the profiles of one collection that
// a call's pairs touch. Tokens are interned to uint32 IDs through a
// dictionary local to the binding, and each profile's distinct IDs sit
// sorted in one flat slice: profile i's set is ids[off[i]:off[i+1]],
// empty for untouched profiles.
type boundSets struct {
	m   SetMeasure
	off []int
	ids []uint32
}

// bind tokenizes every profile that pairs touch, once.
func (m SetMeasure) bind(c *profile.Collection, pairs []blocking.Pair) *boundSets {
	need := make([]bool, len(c.Profiles))
	for _, p := range pairs {
		need[p.A] = true
		need[p.B] = true
	}
	b := &boundSets{m: m, off: make([]int, len(c.Profiles)+1)}
	dict := make(map[string]uint32)
	var sc tokenize.Scratch
	var toks []string
	for i := range c.Profiles {
		if need[i] {
			toks = toks[:0]
			for _, kv := range c.Profiles[i].Attributes {
				toks = m.tok.AppendTokens(toks, kv.Value, &sc)
			}
			start := len(b.ids)
			for _, t := range toks {
				id, ok := dict[t]
				if !ok {
					id = uint32(len(dict))
					dict[t] = id
				}
				b.ids = append(b.ids, id)
			}
			set := b.ids[start:]
			slices.Sort(set)
			b.ids = b.ids[:start+len(slices.Compact(set))]
		}
		b.off[i+1] = len(b.ids)
	}
	return b
}

func (b *boundSets) score(x, y profile.ID) float64 {
	sx := b.ids[b.off[x]:b.off[x+1]]
	sy := b.ids[b.off[y]:b.off[y+1]]
	return b.m.Of(IntersectSorted(sx, sy), len(sx), len(sy))
}

// scorerFor binds measure to the profiles pairs touch and returns a
// scorer of profile-ID pairs: a SetMeasure builds their sets once; any
// other measure scores the profiles as they are.
func scorerFor(c *profile.Collection, pairs []blocking.Pair, measure Measure) func(a, b profile.ID) float64 {
	if m, ok := measure.(SetMeasure); ok {
		return m.bind(c, pairs).score
	}
	return func(a, b profile.ID) float64 { return measure.Score(c.Get(a), c.Get(b)) }
}
