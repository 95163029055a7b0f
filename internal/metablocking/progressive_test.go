package metablocking

import (
	"sort"
	"testing"

	"sparker/internal/profile"
)

func TestScheduleStrategiesCoverSameEdgeSet(t *testing.T) {
	idx := testIndex(40, 21)
	var sets [][]Edge
	for _, s := range []ScheduleStrategy{GlobalTop, ProfileScheduling, RandomOrder} {
		edges := Schedule(idx, Options{Scheme: CBS}, s, 0)
		sets = append(sets, edges)
	}
	norm := func(edges []Edge) [][2]profile.ID {
		out := make([][2]profile.ID, len(edges))
		for i, e := range edges {
			out[i] = [2]profile.ID{e.A, e.B}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i][0] != out[j][0] {
				return out[i][0] < out[j][0]
			}
			return out[i][1] < out[j][1]
		})
		return out
	}
	base := norm(sets[0])
	for i := 1; i < len(sets); i++ {
		got := norm(sets[i])
		if len(got) != len(base) {
			t.Fatalf("strategy %d edge count %d vs %d", i, len(got), len(base))
		}
		for j := range got {
			if got[j] != base[j] {
				t.Fatalf("strategy %d differs at %d", i, j)
			}
		}
	}
}

func TestGlobalTopIsSortedDescending(t *testing.T) {
	idx := testIndex(40, 22)
	edges := Schedule(idx, Options{Scheme: JS}, GlobalTop, 0)
	for i := 1; i < len(edges); i++ {
		if edges[i].Weight > edges[i-1].Weight {
			t.Fatalf("not descending at %d: %f > %f", i, edges[i].Weight, edges[i-1].Weight)
		}
	}
}

func TestScheduleBudget(t *testing.T) {
	idx := testIndex(30, 23)
	full := Schedule(idx, Options{Scheme: CBS}, GlobalTop, 0)
	capped := Schedule(idx, Options{Scheme: CBS}, GlobalTop, 5)
	if len(capped) != 5 {
		t.Fatalf("budget ignored: %d", len(capped))
	}
	for i := range capped {
		if capped[i] != full[i] {
			t.Fatal("budget changed the prefix")
		}
	}
}

func TestProfileSchedulingNoDuplicates(t *testing.T) {
	idx := testIndex(50, 24)
	edges := Schedule(idx, Options{Scheme: CBS}, ProfileScheduling, 0)
	seen := map[[2]profile.ID]bool{}
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("non-canonical edge %+v", e)
		}
		k := [2]profile.ID{e.A, e.B}
		if seen[k] {
			t.Fatalf("duplicate %v", k)
		}
		seen[k] = true
	}
}

func TestScheduleDeterministic(t *testing.T) {
	idx := testIndex(40, 25)
	for _, s := range []ScheduleStrategy{GlobalTop, ProfileScheduling, RandomOrder} {
		a := Schedule(idx, Options{Scheme: CBS}, s, 0)
		b := Schedule(idx, Options{Scheme: CBS}, s, 0)
		if len(a) != len(b) {
			t.Fatalf("%v: non-deterministic length", s)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: non-deterministic at %d", s, i)
			}
		}
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []ScheduleStrategy{GlobalTop, ProfileScheduling, RandomOrder} {
		if s.String() == "unknown" {
			t.Fatalf("strategy %d unnamed", s)
		}
	}
	if ScheduleStrategy(99).String() != "unknown" {
		t.Fatal("out-of-range name")
	}
}

// TestScheduleRandomGolden pins the first comparisons of the random
// schedule. The shuffle permutes whatever order it is handed, so a change
// to the order edges are weighed in would silently reshuffle it; the
// schedule shuffles the (A, B)-sorted edge list, and these pairs are that
// shuffle's prefix.
func TestScheduleRandomGolden(t *testing.T) {
	golden := map[bool][][2]profile.ID{
		false: {{14, 22}, {4, 34}, {20, 42}, {24, 39}, {10, 19}, {19, 38}, {25, 28}, {32, 47}, {1, 25}, {14, 29},
			{8, 9}, {7, 44}, {20, 22}, {5, 39}, {26, 38}, {22, 34}, {17, 30}, {30, 47}, {25, 26}, {6, 30}},
		true: {{0, 34}, {7, 41}, {17, 47}, {11, 45}, {12, 44}, {18, 45}, {9, 31}, {20, 28}, {20, 30}, {0, 45},
			{4, 45}, {23, 46}, {2, 26}, {11, 34}, {0, 44}, {4, 34}, {17, 46}, {17, 45}, {19, 35}, {11, 24}},
	}
	for _, clean := range []bool{false, true} {
		edges := Schedule(clusteredTestIndex(48, 11, clean), Options{Scheme: JS}, RandomOrder, 20)
		want := golden[clean]
		if len(edges) != len(want) {
			t.Fatalf("clean=%v: %d edges, want %d", clean, len(edges), len(want))
		}
		for i, e := range edges {
			if [2]profile.ID{e.A, e.B} != want[i] {
				t.Fatalf("clean=%v: edge %d is (%d,%d), want %v", clean, i, e.A, e.B, want[i])
			}
		}
	}
}
