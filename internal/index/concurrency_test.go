package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// TestConcurrentQueryUpsert hammers the index with concurrent readers and
// writers; run with -race (CI does) to validate the locking model. Each
// shard count runs three weighing paths: CBS weighs without the profile
// lock, ECBS reads candidate key counts from byID under it, and the LSH
// union probe with Jaccard weights reads probe-only signatures from byID
// — all while upserts replace the profiles those reads see.
func TestConcurrentQueryUpsert(t *testing.T) {
	weighings := []struct {
		name string
		cfg  func(*Config)
	}{
		{"cbs", func(*Config) {}},
		{"ecbs", func(c *Config) { c.Scheme = metablocking.ECBS }},
		{"lsh-jaccard", func(c *Config) {
			c.LSH = LSHConfig{Policy: ProbeUnion, Threshold: 0.3, Weight: LSHWeightJaccard}
			// Scan only each query's smallest posting, so rows sharing
			// its filtered-out "shared" token surface as probe-only.
			c.FilterRatio = 0.01
		}},
	}
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			for _, wc := range weighings {
				t.Run(wc.name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Shards = shards
					wc.cfg(&cfg)
					probeOnly := concurrentQueryUpsert(t, New(true, cfg))
					if cfg.LSH.Policy != ProbeOff && probeOnly == 0 {
						t.Fatal("no query weighed a probe-only candidate")
					}
				})
			}
		})
	}
}

// concurrentQueryUpsert seeds x, runs writers replacing and inserting
// profiles against readers querying, resolving and snapshotting, checks
// the index is still consistent, and returns how many probe-only
// candidates the readers' queries weighed.
func concurrentQueryUpsert(t *testing.T, x *Index) int64 {
	// Seed both sources so queries have something to hit.
	for i := 0; i < 50; i++ {
		a := mkProfile(fmt.Sprintf("a%d", i), "name", fmt.Sprintf("item model%d shared%d", i, i%7))
		b := mkProfile(fmt.Sprintf("b%d", i), "title", fmt.Sprintf("item model%d shared%d", i, i%7))
		b.SourceID = 1
		if _, _, err := x.Upsert(a); err != nil {
			t.Fatal(err)
		}
		if _, _, err := x.Upsert(b); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, ops = 4, 8, 200
	var wg sync.WaitGroup
	var probeOnly atomic.Int64
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				// Mix fresh inserts with replacements of seeded rows of
				// both sources: source-1 rows are the queries' candidates.
				var p profile.Profile
				switch {
				case i%6 == 0:
					p = mkProfile(fmt.Sprintf("a%d", i%50), "name",
						fmt.Sprintf("updated model%d worker%d", i, w))
				case i%6 == 3:
					p = mkProfile(fmt.Sprintf("b%d", i%50), "title",
						fmt.Sprintf("item model%d shared%d worker%d", i%50, i%7, w))
					p.SourceID = 1
				default:
					p = mkProfile(fmt.Sprintf("w%d-%d", w, i), "name",
						fmt.Sprintf("fresh model%d shared%d", i, i%7))
				}
				if _, _, err := x.Upsert(p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				q := mkProfile("probe", "name", fmt.Sprintf("item model%d shared%d", i%50, i%7))
				switch i % 3 {
				case 0:
					probeOnly.Add(int64(x.Query(&q).LSHCandidates))
				case 1:
					probeOnly.Add(int64(x.Resolve(&q).Query.LSHCandidates))
				default:
					x.Snapshot()
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The index must still be internally consistent: every stored
	// profile reachable through its own keys.
	s := x.Snapshot()
	if s.Profiles != x.Size() {
		t.Fatalf("snapshot profiles %d != size %d", s.Profiles, x.Size())
	}
	for id := profile.ID(0); int(id) < 20; id++ {
		p, ok := x.Get(id)
		if !ok {
			continue
		}
		res := x.Query(&p)
		if res.Keys == 0 {
			t.Fatalf("profile %d produced no keys", id)
		}
	}
	return probeOnly.Load()
}
