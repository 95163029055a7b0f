package matching

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaccardTokens(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"a"}, 1},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b"}, 1},
	}
	for _, c := range cases {
		if got := JaccardTokens(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("Jaccard(%v,%v)=%f want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestDiceOverlap(t *testing.T) {
	if got := DiceTokens([]string{"a", "b"}, []string{"b", "c"}); !almostEqual(got, 0.5) {
		t.Fatalf("dice=%f", got)
	}
	if got := OverlapTokens([]string{"a", "b"}, []string{"b"}); !almostEqual(got, 1) {
		t.Fatalf("overlap=%f", got)
	}
	if got := OverlapTokens(nil, []string{"b"}); got != 0 {
		t.Fatalf("overlap empty=%f", got)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("lev(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSimilarityRange(t *testing.T) {
	if got := LevenshteinSimilarity("abc", "abc"); got != 1 {
		t.Fatalf("identical: %f", got)
	}
	if got := LevenshteinSimilarity("abc", "xyz"); got != 0 {
		t.Fatalf("disjoint: %f", got)
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	// Classic reference values (rounded).
	if got := Jaro("martha", "marhta"); math.Abs(got-0.9444) > 1e-3 {
		t.Fatalf("jaro martha/marhta=%f", got)
	}
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-0.9611) > 1e-3 {
		t.Fatalf("jw martha/marhta=%f", got)
	}
	if got := Jaro("", ""); got != 1 {
		t.Fatalf("jaro empty=%f", got)
	}
	if got := Jaro("a", ""); got != 0 {
		t.Fatalf("jaro half-empty=%f", got)
	}
}

func TestNumericSimilarity(t *testing.T) {
	if got := NumericSimilarity("100", "100"); got != 1 {
		t.Fatalf("equal: %f", got)
	}
	if got := NumericSimilarity("100", "90"); !almostEqual(got, 0.9) {
		t.Fatalf("90/100: %f", got)
	}
	if got := NumericSimilarity("abc", "100"); got != 0 {
		t.Fatalf("unparsable: %f", got)
	}
	if got := NumericSimilarity("0", "0"); got != 1 {
		t.Fatalf("zeros: %f", got)
	}
}

func TestQuickSimilaritiesBounded(t *testing.T) {
	f := func(a, b []string) bool {
		for _, v := range []float64{JaccardTokens(a, b), DiceTokens(a, b), OverlapTokens(a, b)} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJaccardSymmetric(t *testing.T) {
	f := func(a, b []string) bool {
		return almostEqual(JaccardTokens(a, b), JaccardTokens(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 20 || len(b) > 20 || len(c) > 20 {
			return true
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mkCollection() *profile.Collection {
	mk := func(id, name string) profile.Profile {
		p := profile.Profile{OriginalID: id}
		p.Add("name", name)
		return p
	}
	a := []profile.Profile{
		mk("a1", "acme turbo widget deluxe"),
		mk("a2", "zenix compact gadget"),
	}
	b := []profile.Profile{
		mk("b1", "acme turbo widget"),
		mk("b2", "other thing entirely"),
	}
	return profile.NewCleanClean(a, b)
}

func TestTFIDFCosine(t *testing.T) {
	c := mkCollection()
	m := NewTFIDF(c, tokenize.Options{})
	same := m.Cosine(c.Get(0), c.Get(2))
	diff := m.Cosine(c.Get(0), c.Get(3))
	if same <= diff {
		t.Fatalf("cosine same=%f diff=%f", same, diff)
	}
	if same <= 0 || same > 1+1e-9 {
		t.Fatalf("cosine out of range: %f", same)
	}
}

func TestMatchPairsThreshold(t *testing.T) {
	c := mkCollection()
	pairs := []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}, {A: 1, B: 3}}
	got := MatchPairs(c, pairs, JaccardMeasure(tokenize.Options{}), 0.5)
	if len(got) != 1 || got[0].A != 0 || got[0].B != 2 {
		t.Fatalf("matches: %v", got)
	}
	if got[0].Score < 0.5 {
		t.Fatalf("score below threshold: %v", got[0])
	}
}

func TestScorePairsKeepsAll(t *testing.T) {
	c := mkCollection()
	pairs := []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}}
	got := ScorePairs(c, pairs, JaccardMeasure(tokenize.Options{}))
	if len(got) != 2 {
		t.Fatalf("scored: %v", got)
	}
}

func TestMatchPairsDistributedMatchesSequential(t *testing.T) {
	c := mkCollection()
	pairs := []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}, {A: 1, B: 2}, {A: 1, B: 3}}
	measure := JaccardMeasure(tokenize.Options{})
	seq := MatchPairs(c, pairs, measure, 0.2)
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	dist, err := MatchPairsDistributed(ctx, c, pairs, measure, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, dist) {
		t.Fatalf("seq %v dist %v", seq, dist)
	}
}

func TestEnsemble(t *testing.T) {
	c := mkCollection()
	m1 := MeasureFunc(func(a, b *profile.Profile) float64 { return 1 })
	m2 := MeasureFunc(func(a, b *profile.Profile) float64 { return 0 })
	e := Ensemble([]Measure{m1, m2}, nil)
	if got := e.Score(c.Get(0), c.Get(2)); !almostEqual(got, 0.5) {
		t.Fatalf("uniform ensemble=%f", got)
	}
	w := Ensemble([]Measure{m1, m2}, []float64{3, 1})
	if got := w.Score(c.Get(0), c.Get(2)); !almostEqual(got, 0.75) {
		t.Fatalf("weighted ensemble=%f", got)
	}
}

func TestAttributeMeasure(t *testing.T) {
	c := mkCollection()
	m := AttributeMeasure("name", "name", LevenshteinSimilarity)
	if got := m.Score(c.Get(0), c.Get(2)); got <= 0.5 {
		t.Fatalf("attribute measure=%f", got)
	}
}

func TestTuneThresholdSeparable(t *testing.T) {
	// Perfectly separable scores: the tuner must find a threshold with F1=1.
	c := mkCollection()
	labeled := []LabeledPair{
		{Pair: blocking.Pair{A: 0, B: 2}, IsMatch: true},  // high similarity
		{Pair: blocking.Pair{A: 0, B: 3}, IsMatch: false}, // zero similarity
		{Pair: blocking.Pair{A: 1, B: 3}, IsMatch: false},
	}
	th, f1 := TuneThreshold(c, labeled, JaccardMeasure(tokenize.Options{}))
	if f1 != 1 {
		t.Fatalf("f1=%f th=%f", f1, th)
	}
	matches := MatchPairs(c, []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}}, JaccardMeasure(tokenize.Options{}), th)
	if len(matches) != 1 {
		t.Fatalf("tuned threshold misclassifies: %v", matches)
	}
}

func TestTuneThresholdNoPositives(t *testing.T) {
	c := mkCollection()
	th, f1 := TuneThreshold(c, []LabeledPair{{Pair: blocking.Pair{A: 0, B: 3}}}, JaccardMeasure(tokenize.Options{}))
	if f1 != 0 || th != 0.5 {
		t.Fatalf("degenerate tuning: th=%f f1=%f", th, f1)
	}
}

func TestMongeElkanToleratesTypos(t *testing.T) {
	a := []string{"acme", "turbo", "widget"}
	b := []string{"acem", "turbo", "widgte"} // two typo'd tokens
	jac := JaccardTokens(a, b)
	me := MongeElkan(a, b, LevenshteinSimilarity)
	if me <= jac {
		t.Fatalf("MongeElkan %f must beat Jaccard %f on typos", me, jac)
	}
	if me < 0.7 {
		t.Fatalf("MongeElkan %f too low for near-identical bags", me)
	}
	if MongeElkan(nil, b, LevenshteinSimilarity) != 0 {
		t.Fatal("empty side must score 0")
	}
}

func TestMongeElkanAsymmetric(t *testing.T) {
	short := []string{"acme"}
	long := []string{"acme", "x", "y", "z"}
	fwd := MongeElkan(short, long, LevenshteinSimilarity)
	back := MongeElkan(long, short, LevenshteinSimilarity)
	if fwd != 1 {
		t.Fatalf("subset side must score 1, got %f", fwd)
	}
	if back >= fwd {
		t.Fatalf("asymmetry lost: %f vs %f", back, fwd)
	}
}

func TestTrigramJaccard(t *testing.T) {
	if got := TrigramJaccard("acme widget", "acme widget"); got != 1 {
		t.Fatalf("identical: %f", got)
	}
	reordered := TrigramJaccard("widget acme", "acme widget")
	if reordered < 0.5 {
		t.Fatalf("reordered words score %f; 3-grams should mostly survive", reordered)
	}
	if got := TrigramJaccard("ab", "ab"); got != 0 {
		t.Fatalf("too-short strings must score 0, got %f", got)
	}
}

func TestProfileBag(t *testing.T) {
	p := profile.Profile{}
	p.Add("x", "alpha beta")
	p.Add("y", "beta gamma")
	bag := ProfileBag(&p, tokenize.Options{})
	want := []string{"alpha", "beta", "beta", "gamma"}
	if !reflect.DeepEqual(bag, want) {
		t.Fatalf("bag=%v", bag)
	}
}

// The map-based set scorers below are the reference the sorted-set
// kernel must reproduce bit for bit: the same cardinalities fed to the
// same float expressions.

func refSet(tokens []string) map[string]bool {
	s := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		s[t] = true
	}
	return s
}

func refInter(as, bs map[string]bool) int {
	inter := 0
	for t := range as {
		if bs[t] {
			inter++
		}
	}
	return inter
}

func refJaccard(a, b []string) float64 {
	as, bs := refSet(a), refSet(b)
	if len(as) == 0 && len(bs) == 0 {
		return 0
	}
	inter := refInter(as, bs)
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func refDice(a, b []string) float64 {
	as, bs := refSet(a), refSet(b)
	if len(as)+len(bs) == 0 {
		return 0
	}
	return 2 * float64(refInter(as, bs)) / float64(len(as)+len(bs))
}

func refOverlap(a, b []string) float64 {
	as, bs := refSet(a), refSet(b)
	minLen := len(as)
	if len(bs) < minLen {
		minLen = len(bs)
	}
	if minLen == 0 {
		return 0
	}
	return float64(refInter(as, bs)) / float64(minLen)
}

// setVocab mixes ASCII, accented, non-Latin and numeric tokens; a small
// vocabulary makes overlaps and duplicates common.
var setVocab = []string{"acme", "turbo", "widget", "café", "naïve", "東京", "straße", "αβγ", "5000", "x", "été", "ünïcode"}

func randomBag(rng *rand.Rand) []string {
	bag := make([]string, rng.Intn(8))
	for i := range bag {
		bag[i] = setVocab[rng.Intn(len(setVocab))]
	}
	return bag
}

// randomSetCollection builds a dirty collection of random profiles plus
// the edge cases: no attributes, an empty value, one token repeated, and
// mixed-case non-ASCII values the tokenizer folds together.
func randomSetCollection(rng *rand.Rand, n int) *profile.Collection {
	var ps []profile.Profile
	add := func(values ...string) {
		p := profile.Profile{OriginalID: strconv.Itoa(len(ps))}
		for i, v := range values {
			p.Add("attr"+strconv.Itoa(i), v)
		}
		ps = append(ps, p)
	}
	add()
	add("")
	add("widget widget WIDGET widget")
	add("Café NAÏVE", "café 東京")
	add("ÉTÉ été, été!")
	for len(ps) < n {
		values := make([]string, rng.Intn(3))
		for i := range values {
			values[i] = strings.Join(randomBag(rng), " ")
		}
		add(values...)
	}
	return profile.NewDirty(ps)
}

func allPairs(c *profile.Collection) []blocking.Pair {
	var pairs []blocking.Pair
	for a := 0; a < c.Size(); a++ {
		for b := a + 1; b < c.Size(); b++ {
			pairs = append(pairs, blocking.Pair{A: profile.ID(a), B: profile.ID(b)})
		}
	}
	return pairs
}

var setCases = []struct {
	name    string
	measure func(tokenize.Options) SetMeasure
	ref     func(a, b []string) float64
	tokens  func(a, b []string) float64
}{
	{"jaccard", JaccardMeasure, refJaccard, JaccardTokens},
	{"dice", DiceMeasure, refDice, DiceTokens},
	{"overlap", func(tok tokenize.Options) SetMeasure { return SetMeasure{tok: tok, formula: overlap} }, refOverlap, OverlapTokens},
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSetMeasuresMatchMapReference pins every sorted-set path — the
// bound scorer behind MatchPairs and ScorePairs, SetMeasure.Score and the
// *Tokens functions — to the map-based reference, bit for bit.
func TestSetMeasuresMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomSetCollection(rng, 40)
	pairs := allPairs(c)
	tok := tokenize.Options{}
	for _, tc := range setCases {
		m := tc.measure(tok)
		scored := ScorePairs(c, pairs, m)
		matched := MatchPairs(c, pairs, m, 0) // every score is >= 0
		if len(scored) != len(pairs) || len(matched) != len(pairs) {
			t.Fatalf("%s: scored %d matched %d of %d pairs", tc.name, len(scored), len(matched), len(pairs))
		}
		for i, p := range pairs {
			a, b := c.Get(p.A), c.Get(p.B)
			want := tc.ref(ProfileBag(a, tok), ProfileBag(b, tok))
			for path, got := range map[string]float64{
				"ScorePairs": scored[i].Score,
				"MatchPairs": matched[i].Score,
				"Score":      m.Score(a, b),
			} {
				if !sameBits(got, want) {
					t.Fatalf("%s %s(%v, %v) = %v, reference %v", tc.name, path, a.Attributes, b.Attributes, got, want)
				}
			}
		}

		bags := [][]string{nil, {}, {"x", "x", "x"}, {"café", "東京", "café"}, {""}}
		for i := 0; i < 500; i++ {
			bags = append(bags, randomBag(rng))
		}
		for i, a := range bags {
			b := bags[(i*7+3)%len(bags)]
			for _, pair := range [][2][]string{{a, b}, {a, a}, {a, nil}, {nil, a}} {
				x, y := pair[0], pair[1]
				x0, y0 := slices.Clone(x), slices.Clone(y)
				if got, want := tc.tokens(x, y), tc.ref(x, y); !sameBits(got, want) {
					t.Fatalf("%sTokens(%q, %q) = %v, reference %v", tc.name, x, y, got, want)
				}
				if !slices.Equal(x, x0) || !slices.Equal(y, y0) {
					t.Fatalf("%sTokens modified its input: %q %q", tc.name, x, y)
				}
			}
		}
	}
}

// TestBoundScorerMatchesGenericPath checks that binding a SetMeasure
// changes nothing against the same measure called per pair: sequential
// and distributed matching, and threshold tuning.
func TestBoundScorerMatchesGenericPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomSetCollection(rng, 50)
	pairs := allPairs(c)
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	for _, tc := range setCases {
		m := tc.measure(tokenize.Options{})
		generic := MeasureFunc(m.Score)
		// A sparse subset, two matches and a non-match, leaves most
		// profiles unbound.
		all := MatchPairs(c, pairs, generic, 0.2)
		if len(all) < 2 {
			t.Fatalf("%s: only %d matches in the random collection", tc.name, len(all))
		}
		sparse := []blocking.Pair{{A: all[0].A, B: all[0].B}, {A: 0, B: 1}, {A: all[1].A, B: all[1].B}}
		for _, ps := range [][]blocking.Pair{pairs, sparse} {
			want := MatchPairs(c, ps, generic, 0.2)
			if got := MatchPairs(c, ps, m, 0.2); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: bound MatchPairs differs from the generic path", tc.name)
			}
			for _, measure := range []Measure{m, generic} {
				dist, err := MatchPairsDistributed(ctx, c, ps, measure, 0.2, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dist, want) {
					t.Fatalf("%s: MatchPairsDistributed(%T) = %v, MatchPairs %v", tc.name, measure, dist, want)
				}
			}
		}
		labeled := make([]LabeledPair, len(pairs))
		for i, p := range pairs {
			labeled[i] = LabeledPair{Pair: p, IsMatch: rng.Intn(3) == 0}
		}
		th, f1 := TuneThreshold(c, labeled, m)
		gth, gf1 := TuneThreshold(c, labeled, generic)
		if !sameBits(th, gth) || !sameBits(f1, gf1) {
			t.Fatalf("%s: TuneThreshold bound (%v, %v) generic (%v, %v)", tc.name, th, f1, gth, gf1)
		}
	}
}

// TestComposedMeasuresUnchanged pins Ensemble and AttributeMeasure to
// the formulas they compute, over set measures and plain functions.
func TestComposedMeasuresUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomSetCollection(rng, 30)
	pairs := allPairs(c)
	tok := tokenize.Options{}
	e := Ensemble([]Measure{JaccardMeasure(tok), DiceMeasure(tok)}, []float64{3, 1})
	attr := AttributeMeasure("attr0", "attr0", LevenshteinSimilarity)
	scored := ScorePairs(c, pairs, e)
	for i, p := range pairs {
		a, b := c.Get(p.A), c.Get(p.B)
		ba, bb := ProfileBag(a, tok), ProfileBag(b, tok)
		want := (3*refJaccard(ba, bb) + 1*refDice(ba, bb)) / 4
		if got := e.Score(a, b); !sameBits(got, want) || !sameBits(scored[i].Score, want) {
			t.Fatalf("ensemble(%d, %d) = %v / %v, want %v", p.A, p.B, got, scored[i].Score, want)
		}
		if got, want := attr.Score(a, b), LevenshteinSimilarity(a.Value("attr0"), b.Value("attr0")); !sameBits(got, want) {
			t.Fatalf("attribute(%d, %d) = %v, want %v", p.A, p.B, got, want)
		}
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2, 3}, nil, 0},
		{[]int{1, 3, 5, 7}, []int{2, 3, 4, 7, 9}, 2},
		{[]int{1, 2, 3}, []int{1, 2, 3}, 3},
		{[]int{-5, 0}, []int{-5}, 1},
	}
	for _, c := range cases {
		if got := IntersectSorted(c.a, c.b); got != c.want {
			t.Errorf("IntersectSorted(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := IntersectSorted(c.b, c.a); got != c.want {
			t.Errorf("IntersectSorted(%v, %v) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}
