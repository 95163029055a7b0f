// Package matching implements SparkER's entity matcher: it scores the
// candidate pairs that survive meta-blocking with a pluggable similarity
// measure and labels them match / non-match with a threshold (unsupervised
// mode) or a threshold tuned on labelled examples (supervised mode). The
// paper plugs Magellan in here and lists Jaccard, edit distance and CSA as
// example scores; this package provides those measures (TF-IDF cosine
// standing in for CSA) over profile bags-of-words.
package matching

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// JaccardTokens computes |A∩B|/|A∪B| over two token multisets (duplicates
// ignored).
func JaccardTokens(a, b []string) float64 { return SetMeasure{formula: jaccard}.ofBags(a, b) }

// DiceTokens computes 2|A∩B|/(|A|+|B|).
func DiceTokens(a, b []string) float64 { return SetMeasure{formula: dice}.ofBags(a, b) }

// OverlapTokens computes |A∩B|/min(|A|,|B|).
func OverlapTokens(a, b []string) float64 { return SetMeasure{formula: overlap}.ofBags(a, b) }

// Levenshtein computes the edit distance between two strings.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSimilarity normalises edit distance into [0,1].
func LevenshteinSimilarity(a, b string) float64 {
	if a == "" && b == "" {
		return 0
	}
	maxLen := len([]rune(a))
	if l := len([]rune(b)); l > maxLen {
		maxLen = l
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// Jaro computes the Jaro similarity of two strings.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a prefix (up to 4
// runes, standard scaling 0.1).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && ra[prefix] == rb[prefix] && prefix < 4 {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// NumericSimilarity compares two numeric strings as 1-|x-y|/max(|x|,|y|),
// or 0 when either fails to parse. It is the natural measure for the price
// attributes of the demo dataset.
func NumericSimilarity(a, b string) float64 {
	x, errX := strconv.ParseFloat(strings.TrimSpace(a), 64)
	y, errY := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errX != nil || errY != nil {
		return 0
	}
	if x == y {
		return 1
	}
	den := math.Max(math.Abs(x), math.Abs(y))
	if den == 0 {
		return 1
	}
	s := 1 - math.Abs(x-y)/den
	if s < 0 {
		return 0
	}
	return s
}

// MongeElkan computes the asymmetric Monge-Elkan similarity: for every
// token of a, the best inner similarity against b's tokens, averaged.
// It tolerates token-level typos that set-based measures score as zero.
func MongeElkan(a, b []string, inner func(x, y string) float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range a {
		best := 0.0
		for _, y := range b {
			if s := inner(x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(a))
}

// TrigramJaccard compares strings by the Jaccard similarity of their
// character 3-gram sets, robust to word-order changes and small typos.
func TrigramJaccard(a, b string) float64 {
	ga := tokenize.NGrams(a, 3)
	gb := tokenize.NGrams(b, 3)
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	return JaccardTokens(ga, gb)
}

// ProfileBag returns the concatenated token bag of every attribute value
// of a profile.
func ProfileBag(p *profile.Profile, tok tokenize.Options) []string {
	var out []string
	for _, kv := range p.Attributes {
		out = append(out, tok.Tokens(kv.Value)...)
	}
	return out
}

// TFIDF is a corpus model for cosine similarity over profile bags; it
// stands in for the CSA document-similarity measure cited by the paper.
type TFIDF struct {
	idf  map[string]float64
	tok  tokenize.Options
	docs int
}

// NewTFIDF builds the model from every profile in the collection.
func NewTFIDF(c *profile.Collection, tok tokenize.Options) *TFIDF {
	df := map[string]int{}
	for i := range c.Profiles {
		seen := map[string]bool{}
		for _, t := range ProfileBag(&c.Profiles[i], tok) {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	m := &TFIDF{idf: make(map[string]float64, len(df)), tok: tok, docs: c.Size()}
	for t, n := range df {
		m.idf[t] = math.Log(float64(m.docs+1) / float64(n+1))
	}
	return m
}

// vector builds the TF-IDF vector of a profile bag.
func (m *TFIDF) vector(tokens []string) map[string]float64 {
	tf := map[string]float64{}
	for _, t := range tokens {
		tf[t]++
	}
	for t := range tf {
		idf, ok := m.idf[t]
		if !ok {
			idf = math.Log(float64(m.docs + 1))
		}
		tf[t] *= idf
	}
	return tf
}

// Cosine computes cosine similarity of two profiles' TF-IDF vectors.
// Terms are accumulated in sorted order so scores are bit-identical
// across runs (map iteration order is randomised in Go).
func (m *TFIDF) Cosine(a, b *profile.Profile) float64 {
	va := m.vector(ProfileBag(a, m.tok))
	vb := m.vector(ProfileBag(b, m.tok))
	var dot, na, nb float64
	for _, t := range sortedTerms(va) {
		x := va[t]
		na += x * x
		if y, ok := vb[t]; ok {
			dot += x * y
		}
	}
	for _, t := range sortedTerms(vb) {
		y := vb[t]
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func sortedTerms(v map[string]float64) []string {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}
