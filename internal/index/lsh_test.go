package index

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sparker/internal/lsh"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// lshTestConfig returns a config with the probe subsystem enabled.
func lshTestConfig(policy ProbePolicy) Config {
	cfg := DefaultConfig()
	cfg.LSH = LSHConfig{Policy: policy}
	return cfg
}

// TestProbeOffBitwiseIdentical pins the acceptance criterion: with the
// probe off — whether LSH is disabled outright or enabled but overridden
// per query — results are bitwise-identical to the pre-LSH query path
// (refCandidates, the retained pre-flat-kernel reference).
func TestProbeOffBitwiseIdentical(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
			plain := New(clean, func() Config { c := DefaultConfig(); c.Scheme = scheme; return c }())
			withLSH := New(clean, func() Config { c := lshTestConfig(ProbeUnion); c.Scheme = scheme; return c }())
			for _, p := range synthQueryProfiles(80, sources, 11) {
				if _, _, err := plain.Upsert(p); err != nil {
					t.Fatal(err)
				}
				if _, _, err := withLSH.Upsert(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range synthQueryProfiles(80, sources, 11) {
				p := p
				ref, _ := refCandidates(plain, &p)
				got := withLSH.QueryWith(&p, ProbeOptions{Policy: ProbeOff}).Candidates
				plainGot := plain.Query(&p).Candidates
				if len(ref) != len(got) || len(ref) != len(plainGot) {
					t.Fatalf("clean=%v %v query %s: %d candidates with probe=off, %d plain, reference %d",
						clean, scheme, p.OriginalID, len(got), len(plainGot), len(ref))
				}
				for i := range ref {
					if ref[i].ID != got[i].ID || ref[i].SharedKeys != got[i].SharedKeys ||
						math.Float64bits(ref[i].Weight) != math.Float64bits(got[i].Weight) {
						t.Fatalf("clean=%v %v query %s candidate %d: probe=off %+v vs reference %+v",
							clean, scheme, p.OriginalID, i, got[i], ref[i])
					}
					if got[i].SharedBuckets != 0 {
						t.Fatalf("probe=off candidate %d reports %d shared buckets", i, got[i].SharedBuckets)
					}
				}
			}
		}
	}
}

// commonTokenProfiles builds a collection in token blocking's blind spot:
// filler profiles draw half their tokens from a tiny common vocabulary
// (so every common token's posting holds far more than MaxBlockFraction
// of the index), and a target/probe twin pair shares only those common
// tokens. The token path purges every posting the probe hits and returns
// nothing; the LSH probe still sees the high overall overlap.
func commonTokenProfiles(fillers int) ([]profile.Profile, profile.Profile, profile.Profile) {
	common := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	next := uint64(97)
	rnd := func(mod int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(mod))
	}
	var ps []profile.Profile
	for i := 0; i < fillers; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("f%d", i)}
		toks := make([]string, 0, 5)
		start := rnd(len(common))
		for j := 0; j < 4; j++ { // half the common vocabulary each
			toks = append(toks, common[(start+j*2)%len(common)])
		}
		toks = append(toks, fmt.Sprintf("unique%d", i))
		p.Add("name", strings.Join(toks, " "))
		ps = append(ps, p)
	}
	target := profile.Profile{OriginalID: "target"}
	target.Add("name", strings.Join(common[:6], " ")+" targetonly")
	probe := profile.Profile{OriginalID: "probe"}
	probe.Add("name", strings.Join(common[:6], " "))
	return ps, target, probe
}

// TestFallbackRecoversPurgedTokenMatches is the recall acceptance test in
// miniature: a query sharing only purged-common tokens with its match
// gets zero candidates from token blocking and recovers the match under
// ProbeFallback.
func TestFallbackRecoversPurgedTokenMatches(t *testing.T) {
	fillers, target, probe := commonTokenProfiles(120)
	cfg := lshTestConfig(ProbeFallback)
	cfg.MaxBlockFraction = 0.2
	x := New(false, cfg)
	for _, p := range append(fillers, target) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	targetID, ok := x.lookupOrig("0|target")
	if !ok {
		t.Fatal("target not indexed")
	}

	off := x.QueryWith(&probe, ProbeOptions{Policy: ProbeOff})
	if len(off.Candidates) != 0 {
		t.Fatalf("token-only query found %d candidates; the scenario should purge every posting (purged %d)",
			len(off.Candidates), off.BlocksPurged)
	}
	if off.BlocksPurged == 0 {
		t.Fatalf("scenario broken: no postings were purged")
	}

	fb := x.QueryWith(&probe, ProbeOptions{Policy: ProbeFallback})
	if !fb.LSHProbed {
		t.Fatalf("fallback below the floor did not probe")
	}
	found := false
	for _, c := range fb.Candidates {
		if c.ID == targetID {
			found = true
			if c.SharedKeys != 0 {
				t.Fatalf("target candidate claims %d shared keys; every posting was purged", c.SharedKeys)
			}
			if c.SharedBuckets == 0 {
				t.Fatalf("target candidate reports no shared buckets")
			}
			if c.Weight <= 0 || c.Weight > 1 {
				t.Fatalf("estimated-Jaccard weight %v outside (0, 1]", c.Weight)
			}
		}
	}
	if !found {
		t.Fatalf("fallback probe did not recover the target; got %d candidates (%d probe-only)",
			len(fb.Candidates), fb.LSHCandidates)
	}
	if fb.LSHCandidates < len(fb.Candidates) {
		t.Fatalf("%d probe-only candidates but %d survived pruning", fb.LSHCandidates, len(fb.Candidates))
	}
	for _, c := range fb.Candidates {
		if c.SharedKeys != 0 {
			t.Fatalf("candidate %d shares %d keys; every posting was purged", c.ID, c.SharedKeys)
		}
	}

	// The same recovery must survive Resolve: the cached-bag Jaccard
	// scorer sees real token overlap even though blocking did not.
	r := x.ResolveWith(&probe, ProbeOptions{Policy: ProbeFallback})
	matched := false
	for _, m := range r.Matches {
		if m.B == targetID {
			matched = true
		}
	}
	if !matched {
		t.Fatalf("Resolve under fallback did not match the target (matches %v)", r.Matches)
	}

	// Fallback with a satisfied floor must not probe: queries token
	// blocking serves pay nothing. The served query shares two rare
	// (unpurged) tokens with indexed fillers.
	served := profile.Profile{OriginalID: "served-probe"}
	served.Add("name", "unique3 unique5")
	sv := x.QueryWith(&served, ProbeOptions{Policy: ProbeFallback})
	if len(sv.Candidates) == 0 {
		t.Fatal("served query found no token candidates; scenario broken")
	}
	if sv.LSHProbed {
		t.Fatalf("fallback probed although token blocking found %d candidates", len(sv.Candidates))
	}
}

// TestUnionPreservesTokenWeights pins union semantics: token candidates
// keep their scheme weights bitwise (shared buckets never leak into a
// co-occurrence weight); the union only adds probe-only candidates.
func TestUnionPreservesTokenWeights(t *testing.T) {
	cfg := lshTestConfig(ProbeUnion)
	x := New(false, cfg)
	for _, p := range synthQueryProfiles(60, 1, 31) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range synthQueryProfiles(60, 1, 31) {
		p := p
		off := x.QueryWith(&p, ProbeOptions{Policy: ProbeOff})
		union := x.QueryWith(&p, ProbeOptions{Policy: ProbeUnion})
		offW := make(map[profile.ID]uint64, len(off.Candidates))
		for _, c := range off.Candidates {
			offW[c.ID] = math.Float64bits(c.Weight)
		}
		seen := 0
		for _, c := range union.Candidates {
			if c.SharedKeys == 0 {
				continue // probe-only addition
			}
			w, ok := offW[c.ID]
			if !ok {
				// Pruning is rank-sensitive: a token candidate can be
				// pushed out by heavier probe-only candidates under
				// top-k. Compare only the overlap.
				continue
			}
			seen++
			if w != math.Float64bits(c.Weight) {
				t.Fatalf("query %s candidate %d: union weight %v, off weight %v",
					p.OriginalID, c.ID, c.Weight, math.Float64frombits(w))
			}
		}
		if len(off.Candidates) > 0 && seen == 0 {
			t.Fatalf("query %s: no token candidates survived the union", p.OriginalID)
		}
	}
}

// TestLSHWeightBuckets exercises the shared-bucket weighting mode.
func TestLSHWeightBuckets(t *testing.T) {
	fillers, target, probe := commonTokenProfiles(120)
	cfg := lshTestConfig(ProbeFallback)
	cfg.MaxBlockFraction = 0.2
	cfg.LSH.Weight = LSHWeightBuckets
	x := New(false, cfg)
	for _, p := range append(fillers, target) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	fb := x.Query(&probe)
	if len(fb.Candidates) == 0 {
		t.Fatal("no candidates under bucket weighting")
	}
	for _, c := range fb.Candidates {
		if c.Weight != float64(c.SharedBuckets) {
			t.Fatalf("candidate %d: weight %v != shared buckets %d", c.ID, c.Weight, c.SharedBuckets)
		}
	}
}

// lshInvariants cross-checks buckets against stored profiles: every
// bucket entry references a live profile whose derived band key matches,
// every signed profile appears in each of its band buckets exactly once,
// and the bucket counter equals the live bucket count.
func lshInvariants(t *testing.T, x *Index) {
	t.Helper()
	live := 0
	for si, sh := range x.shards {
		for key, pl := range sh.buckets {
			live++
			if pl.size() == 0 {
				t.Fatalf("shard %d bucket %x: empty posting left behind", si, key)
			}
			for _, id := range append(append([]profile.ID(nil), pl.a...), pl.b...) {
				sp := x.byID[id]
				if sp == nil {
					t.Fatalf("shard %d bucket %x: dangling profile %d", si, key, id)
				}
				found := false
				for b := 0; b < x.lsh.bands; b++ {
					if lsh.BandKey(sp.sig, b, x.lsh.rows) == key {
						found = true
					}
				}
				if !found {
					t.Fatalf("shard %d bucket %x: profile %d's signature does not map to it", si, key, id)
				}
			}
		}
	}
	if got := int(x.numBuckets.Load()); got != live {
		t.Fatalf("bucket counter %d, live buckets %d", got, live)
	}
	for id, sp := range x.byID {
		if sp.sig == nil {
			continue
		}
		for b := 0; b < x.lsh.bands; b++ {
			key := lsh.BandKey(sp.sig, b, x.lsh.rows)
			pl := x.bucketShard(key).buckets[key]
			if pl == nil {
				t.Fatalf("profile %d band %d: bucket %x missing", id, b, key)
			}
			n := 0
			for _, got := range pl.a {
				if got == id {
					n++
				}
			}
			for _, got := range pl.b {
				if got == id {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("profile %d band %d: %d entries in bucket %x, want 1", id, b, n, key)
			}
		}
	}
}

// TestLSHMaintenanceUnderChurn replaces profiles in place and verifies
// the buckets keep the token postings' add/remove discipline: no
// dangling IDs, no duplicate entries, no empty bucket husks.
func TestLSHMaintenanceUnderChurn(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		x := New(clean, lshTestConfig(ProbeUnion))
		batch := synthQueryProfiles(50, sources, 41)
		for _, p := range batch {
			if _, _, err := x.Upsert(p); err != nil {
				t.Fatal(err)
			}
		}
		lshInvariants(t, x)
		// Replace every profile with fresh text (new signature, new
		// buckets), twice, interleaved with an empty-bag replacement that
		// must drop the profile out of the buckets entirely.
		for round := 0; round < 2; round++ {
			for i, p := range batch {
				q := profile.Profile{OriginalID: p.OriginalID, SourceID: p.SourceID}
				if i%7 == round { // empty token bag: no signature
					q.Add("name", "...")
				} else {
					q.Add("name", fmt.Sprintf("regen%d round%d shared%d", i, round, i%5))
				}
				if _, created, err := x.Upsert(q); err != nil {
					t.Fatal(err)
				} else if created {
					t.Fatalf("replacement of %s created a new profile", p.OriginalID)
				}
			}
			lshInvariants(t, x)
		}
	}
}

// TestLSHDisabledIndexDegradesPolicies pins QueryWith on a plain index:
// every policy behaves as off and nothing probes.
func TestLSHDisabledIndexDegradesPolicies(t *testing.T) {
	x := New(false, DefaultConfig())
	for _, p := range synthQueryProfiles(20, 1, 3) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	if x.LSHEnabled() {
		t.Fatal("default config enabled LSH")
	}
	q := synthQueryProfiles(20, 1, 3)[4]
	for _, pol := range []ProbePolicy{ProbeOff, ProbeFallback, ProbeUnion} {
		r := x.QueryWith(&q, ProbeOptions{Policy: pol})
		if r.LSHProbed || r.BucketsProbed != 0 || r.LSHCandidates != 0 {
			t.Fatalf("policy %v probed on an LSH-disabled index: %+v", pol, r)
		}
	}
	if s := x.Snapshot(); s.LSH != nil {
		t.Fatalf("snapshot reports LSH stats on a disabled index: %+v", s.LSH)
	}
}

// TestProbePolicyParse round-trips the flag forms.
func TestProbePolicyParse(t *testing.T) {
	for _, pol := range []ProbePolicy{ProbeOff, ProbeFallback, ProbeUnion} {
		got, err := ParseProbePolicy(pol.String())
		if err != nil || got != pol {
			t.Fatalf("round-trip %v: got %v, err %v", pol, got, err)
		}
	}
	if _, err := ParseProbePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestLSHStatsCounters checks the probe counters surfaced in Snapshot.
func TestLSHStatsCounters(t *testing.T) {
	fillers, target, probe := commonTokenProfiles(80)
	cfg := lshTestConfig(ProbeFallback)
	cfg.MaxBlockFraction = 0.2
	x := New(false, cfg)
	for _, p := range append(fillers, target) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	x.Query(&probe)
	x.Query(&probe)
	s := x.Snapshot()
	if s.LSH == nil {
		t.Fatal("no LSH stats on an enabled index")
	}
	if s.LSH.Probes != 2 {
		t.Fatalf("probe counter %d, want 2", s.LSH.Probes)
	}
	if s.LSH.ProbeOnlyCandidates == 0 {
		t.Fatal("probe-only candidate counter did not move")
	}
	if s.LSH.Buckets == 0 || s.LSH.Buckets != int(x.numBuckets.Load()) {
		t.Fatalf("bucket stat %d, counter %d", s.LSH.Buckets, x.numBuckets.Load())
	}
	if s.LSH.Bands*s.LSH.Rows != s.LSH.SignatureLen {
		t.Fatalf("banding %d×%d does not tile signature length %d", s.LSH.Bands, s.LSH.Rows, s.LSH.SignatureLen)
	}
}
