package index

import (
	"bytes"
	"testing"
)

// FuzzLoadIndex feeds arbitrary bytes to the snapshot decoder. The
// contract under fuzzing: any input either decodes into an internally
// consistent, queryable index or returns an error — never a panic, and
// never an allocation proportional to a lying length header rather than
// to the input actually supplied. Seeds cover valid snapshots of both
// task types (with and without entropy keys), LSH-enabled snapshots,
// and clean, dirty and LSH images followed by op frames (what an older
// build's delta save wrote), plus the mutation classes the decoder must
// reject: truncation, bit flips, and version bumps. Every input is
// decoded under a plain config and an LSH-enabled one: the LSH section
// must hold up whether its signatures are kept or discarded.
func FuzzLoadIndex(f *testing.F) {
	dirty := encodeToBytes(f, smallTestIndex(f, false))
	clean := encodeToBytes(f, smallTestIndex(f, true))

	entCfg := DefaultConfig()
	entCfg.Clustering = lenClustering{}
	entCfg.Entropy = rampEntropy{}
	ent := New(false, entCfg)
	for _, p := range synthQueryProfiles(8, 1, 23) {
		if _, _, err := ent.Upsert(p); err != nil {
			f.Fatal(err)
		}
	}
	entropy := encodeToBytes(f, ent)

	empty := encodeToBytes(f, New(true, DefaultConfig()))

	// LSH seeds stay deliberately tiny (few profiles, short signatures):
	// mutation throughput degrades with corpus entry size, and a 16-wide
	// signature walks the same decode paths as a 128-wide one.
	smallLSHCfg := DefaultConfig()
	smallLSHCfg.LSH = LSHConfig{Policy: ProbeFallback, SignatureLen: 16}
	smallLSH := func(clean bool) *Index {
		sources := 1
		if clean {
			sources = 2
		}
		x := New(clean, smallLSHCfg)
		for _, p := range synthQueryProfiles(8, sources, 19) {
			if _, _, err := x.Upsert(p); err != nil {
				f.Fatal(err)
			}
		}
		return x
	}
	withLSH := encodeToBytes(f, smallLSH(false))
	cleanLSH := encodeToBytes(f, smallLSH(true))

	// Rejection seeds: images with op frames appended after their
	// trailer. Mutations around an image's end must still error, never
	// panic or replay the frames.
	lshOpLog := smallLSHCfg
	lshOpLog.OpLog.Enabled = true
	var tailed [][]byte
	for _, tc := range []struct {
		clean bool
		cfg   Config
	}{{true, opLogConfig()}, {false, opLogConfig()}, {false, lshOpLog}} {
		image, tail := imageWithOpTail(f, tc.clean, tc.cfg)
		seed := append(append([]byte(nil), image...), tail...)
		if _, err := Decode(bytes.NewReader(seed), tc.cfg); err == nil {
			f.Fatal("image plus op frames decoded; the tail must be rejected")
		}
		tailed = append(tailed, seed)
	}

	seeds := [][]byte{dirty, clean, entropy, empty, withLSH, cleanLSH}
	for _, seed := range append(seeds, tailed...) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])                      // truncated
		f.Add(seed[:len(seed)-3])                      // lost trailer
		f.Add(append([]byte{}, seed[len(seed)/3:]...)) // lost header

		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/2] ^= 0x20 // payload bit flip
		f.Add(flipped)

		bumped := append([]byte(nil), seed...)
		bumped[len(snapshotMagic)] = snapshotVersion + 1 // future version
		f.Add(bumped)
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	cfg := DefaultConfig()
	lshCfg := lshTestConfig(ProbeFallback)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Config{cfg, lshCfg} {
			x, err := Decode(bytes.NewReader(data), c)
			if err != nil {
				continue
			}
			// Decoded successfully: the index must hold together under use.
			s := x.Snapshot()
			if s.Profiles != x.Size() {
				t.Fatalf("snapshot profiles %d != size %d", s.Profiles, x.Size())
			}
			q := mkProfile("probe", "name", "alpha shared0 tok1")
			x.Query(&q)
			x.Resolve(&q)
			if x.LSHEnabled() {
				x.QueryWith(&q, ProbeOptions{Policy: ProbeUnion})
			}
			if _, _, err := x.Upsert(mkProfile("fresh", "name", "post fuzz upsert")); err != nil {
				t.Fatalf("upsert on decoded index: %v", err)
			}
		}
	})
}
