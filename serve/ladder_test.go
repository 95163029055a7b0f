package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// singleNodeLadder is the reference for what one node runs a query
// with at each admission level: the request's own budget, else the
// server default, then the documented ladder — a budget capped at
// 200ms (imposed when there is none) and halved per level above 1,
// floored at 5ms, and comparisons capped at 1024/256/64. It returns the
// wall-clock budget in ms and the comparison cap, 0 meaning unlimited.
func singleNodeLadder(level int, knob string, defaultBudget time.Duration) (budgetMS float64, maxComparisons int) {
	budgetMS = float64(defaultBudget) / float64(time.Millisecond)
	if v, _ := url.ParseQuery(knob); v.Has("budget_ms") {
		budgetMS, _ = strconv.ParseFloat(v.Get("budget_ms"), 64)
	}
	if level == 0 {
		return budgetMS, 0
	}
	if budgetMS == 0 || budgetMS > 200 {
		budgetMS = 200
	}
	budgetMS /= float64(int(1) << (level - 1))
	if budgetMS < 5 {
		budgetMS = 5
	}
	return budgetMS, [4]int{0, 1024, 256, 64}[level]
}

// TestCoordinatorLadderMatchesSingleNode pins the coordinator's
// degradation ladder to the single node's: at every admission level,
// for every budget a client can send and with or without a server
// default, the coordinator forwards each shard the single node's
// effective comparison cap and its effective budget times
// shardBudgetFraction — so a degraded query is never looser than the
// same query on an idle coordinator. Levels are produced by the real
// gate: pre-filled slots for levels 1-2, a wait for a freed slot for 3.
func TestCoordinatorLadderMatchesSingleNode(t *testing.T) {
	captured := make(chan string, 1)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			captured <- r.URL.RawQuery
			fmt.Fprint(w, `{}`)
			return
		}
		fmt.Fprint(w, `{"status": "ok"}`)
	}))
	defer fake.Close()

	for _, def := range []time.Duration{0, 50 * time.Millisecond} {
		c, err := NewCluster([]string{fake.URL}, ClusterOptions{MaxInFlight: 4, ShedWait: time.Minute, DefaultBudget: def})
		if err != nil {
			t.Fatal(err)
		}
		// query sends one request at the given admission level and
		// returns the knobs the shard received.
		query := func(t *testing.T, level int, knob string) QueryParams {
			t.Helper()
			fill := [4]int{0, 2, 3, 4}[level] // occupancy that yields the level
			for i := 0; i < fill; i++ {
				c.gate.sem <- struct{}{}
			}
			defer func() {
				for len(c.gate.sem) > 0 {
					<-c.gate.sem
				}
			}()
			done := make(chan int, 1)
			go func() {
				w := httptest.NewRecorder()
				c.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query?"+knob, strings.NewReader(clusterQuery)))
				done <- w.Code
			}()
			if level == 3 {
				// Full gate: free a slot once the request waits for one.
				for c.gate.waiting.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				<-c.gate.sem
			}
			if code := <-done; code != http.StatusOK {
				t.Fatalf("level %d query: status %d", level, code)
			}
			fwd, err := url.ParseQuery(<-captured)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ParseQueryParams(fwd)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}

		for _, knob := range []string{"", "budget_ms=0", "budget_ms=100"} {
			name := knob
			if name == "" {
				name = "no budget"
			}
			t.Run(fmt.Sprintf("default %v, %s", def, name), func(t *testing.T) {
				var level0 float64
				for level := 0; level <= 3; level++ {
					got := query(t, level, knob)
					wantBudget, wantMax := singleNodeLadder(level, knob, def)
					wantBudget *= shardBudgetFraction
					if math.Abs(got.BudgetMS-wantBudget) > 1e-9 || got.MaxComparisons != wantMax {
						t.Errorf("level %d forwards budget_ms=%v max_comparisons=%d, want %v and %d",
							level, got.BudgetMS, got.MaxComparisons, wantBudget, wantMax)
					}
					if level == 0 {
						level0 = got.BudgetMS
					} else if got.BudgetMS == 0 || (level0 > 0 && got.BudgetMS > level0) {
						t.Errorf("level %d forwards budget_ms=%v, looser than level 0's %v", level, got.BudgetMS, level0)
					}
				}
			})
		}
		c.Close()
	}
}
