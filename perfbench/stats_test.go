package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestSummarizeReportsTailWithTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantQ     float64
		wantTail  float64
		wantLabel string
	}{
		{n: 5, wantQ: 0, wantTail: 0, wantLabel: "no tail"},  // too few for any tail
		{n: 25, wantQ: 0.5, wantTail: 13, wantLabel: "p50"},  // 12 beyond the median
		{n: 100, wantQ: 0.9, wantTail: 90, wantLabel: "p90"}, // p99 and p95 lack 10 beyond
		{n: 500, wantQ: 0.98, wantTail: 490, wantLabel: "p98"},
		{n: 1000, wantQ: 0.99, wantTail: 990, wantLabel: "p99"},
	} {
		s := Summarize(seq(tc.n), 0.99)
		if s.N != tc.n || s.TailQ != tc.wantQ || s.Tail != tc.wantTail || s.TailLabel() != tc.wantLabel {
			t.Errorf("n=%d: got n=%d %s=%v, want %s=%v", tc.n, s.N, s.TailLabel(), s.Tail, tc.wantLabel, tc.wantTail)
		}
		if tc.wantQ > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond the %s, want at least %d", tc.n, beyond, s.TailLabel(), minBeyond)
			}
		}
	}
	if s := Summarize(seq(5), 0.99); s.Median != 3 {
		t.Errorf("median of 1..5 = %v, want 3", s.Median)
	}
}

func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 40 * time.Millisecond
	due := make([]time.Duration, 60)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	samples := OpenLoop(1, due, func(i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	if got := samples[5].Latency(); got < stall {
		t.Fatalf("stalled request latency %v, want at least %v", got, stall)
	}
	// Request 6 was due 1ms after the stalled one and could only go out
	// when it ended: its wait counts in its latency.
	if got := samples[6].Late(); got < stall-5*time.Millisecond {
		t.Errorf("request after the stall sent %v late, want about %v", got, stall)
	}
	if got := samples[6].Latency(); got < stall-5*time.Millisecond {
		t.Errorf("request after the stall has latency %v, want about %v", got, stall)
	}
	if samples[59].Latency() >= samples[6].Latency() {
		t.Errorf("backlog never drained: last latency %v, first after the stall %v", samples[59].Latency(), samples[6].Latency())
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 80, End: 90},
		{ID: 5, Parent: 1, Name: "child", Start: 95, End: 120}, // runs past the parent
		{ID: 6, Parent: 2, Name: "grandchild", Start: 12, End: 14},
	}
	self := SelfTimes(spans)
	// Covered: [10,50] + [80,90] + [95,100] = 55 of 100.
	if self[1] != 45 {
		t.Errorf("parent self time %d, want 45", self[1])
	}
	if self[2] != 18 {
		t.Errorf("child self time %d, want 18", self[2])
	}
	if self[6] != 2 {
		t.Errorf("leaf self time %d, want its duration 2", self[6])
	}
}

func TestSetParentsByContainmentAndRequest(t *testing.T) {
	tr := NewTracer()
	tr.Record(1, "client", 0, 7, 0, 100)
	tr.Record(2, "coord", 0, 7, 5, 90)
	tr.Record(3, "shard", 0, 0, 10, 40)
	tr.Record(4, "shard", 0, 0, 95, 99) // outside every coordinator span
	tr.LinkByReq("coord", "client")
	tr.SetParents("shard", "coord")
	got := map[int64]Span{}
	for _, s := range tr.Spans() {
		got[s.ID] = s
	}
	if got[2].Parent != 1 {
		t.Errorf("coordinator span parent %d, want the client span 1", got[2].Parent)
	}
	if got[3].Parent != 2 || got[3].Req != 7 {
		t.Errorf("shard span parent %d req %d, want 2 and 7", got[3].Parent, got[3].Req)
	}
	if got[4].Parent != 0 {
		t.Errorf("shard span outside any coordinator span got parent %d", got[4].Parent)
	}
}

func TestRatiosPrintWithTheirBase(t *testing.T) {
	if got, want := (Ratio{912, 1000}).String(), "0.9120 (912/1000)"; got != want {
		t.Errorf("Ratio.String() = %q, want %q", got, want)
	}
	if v := (Ratio{3, 0}).Value(); v != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", v)
	}

	r := newResult(&runOpts{workload: "w"})
	r.layerRatio("metablocking.keep_ratio", Ratio{1, 4}, 1, "edges / comparisons")
	r.e2eRatio("recall", Ratio{3, 4}, 4, "")
	var buf bytes.Buffer
	printReport(&buf, r)
	for _, want := range []string{"= 0.2500 (1/4) edges / comparisons", "= 0.7500 (3/4)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
	for _, defs := range [][]def{endToEnd, namedMetrics, perLayer} {
		for _, d := range defs {
			if d.unit != "ratio" {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("ratio metric %s recorded without its base", d.name)
					}
				}()
				record(map[string]Metric{}, defs, d.name, 0.5, nil, 1, "")
			}()
		}
	}
}

// TestBenchmarkJSONMatchesMetricTables pins BENCHMARK.json to the
// metrics the program prints.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) || len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end, %d per-layer metrics and %d workloads; the program has %d, %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workloads[%d] = %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}
