package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/core"
	"sparker/internal/dataflow"
	"sparker/internal/evaluation"
	"sparker/internal/loader"
	"sparker/internal/looseschema"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// batchScale is the SynthAbtBuy multiple of batch-dataflow (≈6.5k
// profiles).
const batchScale = 3

// batchSetups is how many times a run sets the batch workload up, for
// the median set-up time.
const batchSetups = 5

// batchInput is the set-up of one batch run: the generated data written
// to CSV, and the dataflow context the passes run on.
type batchInput struct {
	pathA, pathB string
	truth        [][2]string
	ctx          *dataflow.Context
}

// setupBatch generates SynthAbtBuy ×batchScale, writes both sources to
// CSV in dir and starts a dataflow context with one executor per core.
func setupBatch(dir string, seed int64) (*batchInput, error) {
	ds := abtBuy(batchScale, seed)
	c := ds.Collection
	in := &batchInput{
		pathA: filepath.Join(dir, "abt.csv"),
		pathB: filepath.Join(dir, "buy.csv"),
		truth: ds.GroundTruth,
	}
	if err := writeCSV(in.pathA, c.Profiles[:c.Separator]); err != nil {
		return nil, err
	}
	if err := writeCSV(in.pathB, c.Profiles[c.Separator:]); err != nil {
		return nil, err
	}
	in.ctx = dataflow.NewContext(dataflow.WithParallelism(runtime.NumCPU()))
	return in, nil
}

func writeCSV(path string, ps []profile.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := loader.WriteProfilesCSV(f, ps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readInput is the loader step of a pass: both CSVs into one
// clean-clean collection.
func (in *batchInput) readInput() (*profile.Collection, error) {
	a, err := loader.ReadProfilesCSVFile(in.pathA, "id")
	if err != nil {
		return nil, err
	}
	b, err := loader.ReadProfilesCSVFile(in.pathB, "id")
	if err != nil {
		return nil, err
	}
	return profile.NewCleanClean(a, b), nil
}

// resolvePass is one timed pass: raw CSV to entities through the
// pipeline on the dataflow engine. Like a fresh batch job, each pass
// starts on a collected heap, not on the previous pass's garbage.
func (in *batchInput) resolvePass() (*core.Result, *profile.Collection, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	c, err := in.readInput()
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := core.NewPipeline(core.DefaultConfig(), in.ctx).Resolve(c)
	if err != nil {
		return nil, nil, 0, err
	}
	return res, c, time.Since(start), nil
}

// runBatch is the batch-dataflow workload.
func runBatch(o *runOpts) (*Result, error) {
	r := newResult(o)
	dir, err := os.MkdirTemp(o.workdir, "batch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var in *batchInput
	var setups []float64
	for i := 0; i < batchSetups; i++ {
		if in != nil {
			in.ctx.Close()
		}
		start := time.Now()
		if in, err = setupBatch(dir, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.ctx.Close()
	r.setup(setups)

	r.check("dataflow entities equal sequential entities on SynthAbtBuy x1", checkDataflowEqualsSequential(in.ctx, o.seed))

	if o.trace {
		return r, traceBatch(o, r, in)
	}

	var (
		passes []float64
		last   *core.Result
		lastC  *profile.Collection
		failed int
	)
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < o.seconds {
		res, c, d, err := in.resolvePass()
		if err != nil {
			failed++
			r.problem("pass %d: %v", len(passes)+failed, err)
			break
		}
		if last != nil && !sameResult(last, res) {
			r.problem("pass %d resolved differently from pass 1", len(passes)+1)
		}
		passes = append(passes, d.Seconds())
		last, lastC = res, c
	}
	r.phase("passes", len(passes)+failed, failed)
	heap := liveHeapMiB()
	if last == nil {
		return r, nil
	}

	gt, err := evaluation.FromOriginalIDs(lastC, in.truth)
	if err != nil {
		return nil, err
	}
	steps := last.Evaluate(lastC, gt)
	q := map[string]evaluation.Metrics{}
	for _, s := range steps {
		q[s.Step] = s.Metrics
	}
	if len(last.Entities) == 0 {
		r.problem("no entities resolved")
	}

	batch := Summarize(passes, 0.99)
	perSec := make([]float64, len(passes))
	for i, p := range passes {
		perSec[i] = float64(lastC.Size()) / p
	}
	ent := q["clustering"]
	r.named("setup_s", Median(setups), len(setups), "median of set-ups: generate, write CSV, start the dataflow context")
	r.named("batch_s", batch.Median, batch.N, "median pass, raw CSV to entities")
	bl, ma := q["blocking"], q["matching"]
	r.namedRatio("blocking_pc", recallOf(bl), bl.Candidates, "true pairs among the candidates / true pairs")
	r.namedRatio("blocking_pq", precisionOf(bl), bl.Candidates, "true pairs among the candidates / distinct candidates")
	r.namedRatio("match_f1", f1Of(ma), ma.Candidates, fmt.Sprintf("2TP / (2TP + FP + FN); recall %.4f precision %.4f", ma.Recall, ma.Precision))
	r.namedRatio("entity_f1", f1Of(ent), ent.Candidates, fmt.Sprintf("2TP / (2TP + FP + FN) over co-reference pairs; recall %.4f precision %.4f", ent.Recall, ent.Precision))
	r.namedRatio("ops_failed_ratio", Ratio{float64(r.failed()), float64(r.attempted())}, r.attempted(), "failed / attempted passes")
	r.named("live_heap_mb", heap, 1, "after a forced GC at the end of the passes")

	r.e2e("setup_s", Median(setups), len(setups), "median of set-ups")
	r.e2e("latency_p50_ms", 1000*batch.Median, batch.N, "median pass wall time (batch_s)")
	r.e2e("throughput_per_s", Median(perSec), len(perSec), fmt.Sprintf("profiles resolved per second of pass, %d profiles", lastC.Size()))
	r.e2eRatio("recall", recallOf(ent), ent.Candidates, "true pairs co-referenced by the entities / true pairs")
	r.e2eRatio("precision", precisionOf(ent), ent.Candidates, "entity co-reference pairs that are true / all of them")
	r.e2e("live_heap_mb", heap, 1, "after a forced GC at the end of the passes")
	runtime.KeepAlive(last)
	return r, nil
}

// recallOf, precisionOf and f1Of give evaluation.Metrics' shares with
// their bases.
func recallOf(m evaluation.Metrics) Ratio {
	return Ratio{float64(m.TruePositives), float64(m.TruePositives + m.FalseNegatives)}
}

func precisionOf(m evaluation.Metrics) Ratio {
	return Ratio{float64(m.TruePositives), float64(m.TruePositives + m.FalsePositives)}
}

func f1Of(m evaluation.Metrics) Ratio {
	return Ratio{float64(2 * m.TruePositives), float64(2*m.TruePositives + m.FalsePositives + m.FalseNegatives)}
}

// checkDataflowEqualsSequential resolves SynthAbtBuy ×1 with and
// without the dataflow engine and compares the entities as sets of
// profiles.
func checkDataflowEqualsSequential(ctx *dataflow.Context, seed int64) error {
	c := abtBuy(1, seed).Collection
	seq, err := core.NewPipeline(core.DefaultConfig(), nil).Resolve(c)
	if err != nil {
		return err
	}
	dist, err := core.NewPipeline(core.DefaultConfig(), ctx).Resolve(c)
	if err != nil {
		return err
	}
	if !slices.EqualFunc(canonical(seq.Entities), canonical(dist.Entities), slices.Equal) {
		return fmt.Errorf("sequential resolved %d entities, dataflow %d, and they differ", len(seq.Entities), len(dist.Entities))
	}
	return nil
}

// canonical lists each entity's profiles, in the order of their first
// profile: entity IDs and order are labels the two clusterers assign
// differently.
func canonical(es []clustering.Entity) [][]profile.ID {
	out := make([][]profile.ID, len(es))
	for i, e := range es {
		out[i] = slices.Clone(e.Profiles)
		slices.Sort(out[i])
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// sameResult compares two pipeline results: candidates, matches and
// entities.
func sameResult(a, b *core.Result) bool {
	return slices.Equal(a.Blocker.Candidates, b.Blocker.Candidates) &&
		slices.Equal(a.Matches, b.Matches) &&
		reflect.DeepEqual(a.Entities, b.Entities)
}

// batchStep is one layer call of the mirror pass.
type batchStep struct {
	name   string // span name; the per-layer metric is name + "_s"
	layer  string // alloc_mb is summed per layer
	dur    time.Duration
	allocs uint64
	flow   dataflow.MetricsSnapshot // deltas around the call
}

// mirrorPass makes the calls Pipeline.Resolve makes under
// core.DefaultConfig, in the same order, with a span, an allocation
// delta and dataflow counter deltas around each.
func mirrorPass(tr *Tracer, in *batchInput, pass int64) (*core.Result, *profile.Collection, []batchStep, error) {
	cfg := core.DefaultConfig()
	if !cfg.LooseSchema || !cfg.MetaBlocking || !cfg.UseEntropy || cfg.Measure != core.MeasureJaccard || cfg.Clusterer != core.ClusterConnectedComponents {
		return nil, nil, nil, fmt.Errorf("core.DefaultConfig no longer takes the path the mirror pass makes")
	}
	passSpan := tr.Start("batch.pass", 0, pass)
	var steps []batchStep
	step := func(name, layer string, fn func() error) error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f0 := in.ctx.Metrics()
		sp := tr.Start(name, passSpan.ID(), pass)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		sp.End()
		f1 := in.ctx.Metrics()
		runtime.ReadMemStats(&m1)
		steps = append(steps, batchStep{name: name, layer: layer, dur: d, allocs: m1.TotalAlloc - m0.TotalAlloc, flow: flowDelta(f0, f1)})
		return err
	}

	var (
		c         *profile.Collection
		part      *looseschema.Partitioning
		res       = &core.Result{Blocker: &core.BlockerResult{}}
		bidx      *blocking.Index
		err       error
		blockOpts blocking.Options
	)
	if err = step("loader.read", "loader", func() (err error) { c, err = in.readInput(); return err }); err != nil {
		return nil, nil, nil, err
	}
	step("looseschema.partition", "looseschema", func() error {
		res.Blocker.AttributeProfiles = looseschema.ExtractAttributeProfiles(c, cfg.Tokenizer)
		part = looseschema.PartitionAttributes(res.Blocker.AttributeProfiles, c.IsClean(), looseschema.Options{
			Threshold: cfg.SchemaThreshold,
			Seed:      cfg.Seed,
			Tokenizer: cfg.Tokenizer,
		})
		res.Blocker.Partitioning = part
		return nil
	})
	blockOpts = blocking.Options{Tokenizer: cfg.Tokenizer, Clustering: part}
	if err = step("blocking.token_blocking", "blocking", func() (err error) {
		res.Blocker.Raw, err = blocking.DistributedTokenBlocking(in.ctx, c, blockOpts, cfg.Partitions)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	step("blocking.purge_filter", "blocking", func() error {
		res.Blocker.Purged = blocking.PurgeBySize(res.Blocker.Raw, cfg.PurgeFactor)
		res.Blocker.Filtered = blocking.Filter(res.Blocker.Purged, cfg.FilterRatio)
		return nil
	})
	step("blocking.build_index", "blocking", func() error {
		bidx = blocking.BuildIndex(res.Blocker.Filtered)
		return nil
	})
	if err = step("metablocking.run", "metablocking", func() (err error) {
		opts := metablocking.Options{Scheme: cfg.Scheme, Pruning: cfg.Pruning, Entropy: part}
		res.Blocker.Edges, err = metablocking.RunDistributed(in.ctx, bidx, opts, cfg.Partitions)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	res.Blocker.Candidates = make([]blocking.Pair, len(res.Blocker.Edges))
	for i, e := range res.Blocker.Edges {
		res.Blocker.Candidates[i] = blocking.Pair{A: e.A, B: e.B}
	}
	if err = step("matching.match", "matching", func() (err error) {
		res.Matches, err = matching.MatchPairsDistributed(in.ctx, c, res.Blocker.Candidates, matching.JaccardMeasure(cfg.Tokenizer), cfg.MatchThreshold, cfg.Partitions)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	if err = step("clustering.cc", "clustering", func() (err error) {
		res.Entities, err = clustering.DistributedConnectedComponents(in.ctx, res.Matches, cfg.Partitions)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	passSpan.End()
	return res, c, steps, nil
}

func flowDelta(a, b dataflow.MetricsSnapshot) dataflow.MetricsSnapshot {
	return dataflow.MetricsSnapshot{
		TasksLaunched:   b.TasksLaunched - a.TasksLaunched,
		TasksRetried:    b.TasksRetried - a.TasksRetried,
		ShuffleRecords:  b.ShuffleRecords - a.ShuffleRecords,
		BroadcastsBuilt: b.BroadcastsBuilt - a.BroadcastsBuilt,
	}
}

// traceBatch alternates untraced pipeline passes with traced mirror
// passes, checks that each mirror equals its pipeline pass, and reports
// the per-layer metrics as medians over the mirror passes.
func traceBatch(o *runOpts, r *Result, in *batchInput) error {
	var (
		plain, traced []float64
		stepDur       = map[string][]float64{}
		layerAlloc    = map[string][]float64{}
		flow          = map[string][]float64{}
		last          *core.Result
		lastSteps     []batchStep
		failed        int
	)
	start := time.Now()
	for pass := int64(1); len(traced) == 0 || time.Since(start) < o.seconds; pass++ {
		// Alternate which of the pair runs first, so warm-up and drift
		// do not favour one side of the overhead ratio.
		var (
			want, got *core.Result
			steps     []batchStep
			d         time.Duration
			err       error
		)
		plainPass := func() error {
			want, _, d, err = in.resolvePass()
			if err == nil {
				plain = append(plain, d.Seconds())
			}
			return err
		}
		tracedPass := func() error {
			runtime.GC()
			t0 := time.Now()
			got, _, steps, err = mirrorPass(o.tracer, in, pass)
			if err == nil {
				traced = append(traced, time.Since(t0).Seconds())
			}
			return err
		}
		first, second := plainPass, tracedPass
		if pass%2 == 0 {
			first, second = tracedPass, plainPass
		}
		if err := first(); err != nil {
			failed++
			r.problem("pass %d: %v", pass, err)
			break
		}
		if err := second(); err != nil {
			failed++
			r.problem("pass %d: %v", pass, err)
			break
		}
		if !sameResult(want, got) {
			r.problem("mirror pass %d differs from Pipeline.Resolve", pass)
		}
		allocs := map[string]float64{}
		var tot dataflow.MetricsSnapshot
		for _, s := range steps {
			stepDur[s.name] = append(stepDur[s.name], s.dur.Seconds())
			allocs[s.layer] += float64(s.allocs) / (1 << 20)
			tot.TasksLaunched += s.flow.TasksLaunched
			tot.TasksRetried += s.flow.TasksRetried
			tot.ShuffleRecords += s.flow.ShuffleRecords
			tot.BroadcastsBuilt += s.flow.BroadcastsBuilt
		}
		for layer, mb := range allocs {
			layerAlloc[layer] = append(layerAlloc[layer], mb)
		}
		flow["dataflow.tasks"] = append(flow["dataflow.tasks"], float64(tot.TasksLaunched))
		flow["dataflow.tasks_retried"] = append(flow["dataflow.tasks_retried"], float64(tot.TasksRetried))
		flow["dataflow.shuffle_records"] = append(flow["dataflow.shuffle_records"], float64(tot.ShuffleRecords))
		flow["dataflow.broadcasts"] = append(flow["dataflow.broadcasts"], float64(tot.BroadcastsBuilt))
		last, lastSteps = got, steps
	}
	r.phase("pass-pairs", len(traced)+failed, failed)
	if last == nil {
		return nil
	}
	for name, xs := range stepDur {
		r.layer(name+"_s", Median(xs), len(xs), "median over mirror passes")
	}
	for _, layer := range []string{"looseschema", "blocking", "metablocking", "matching"} {
		xs := layerAlloc[layer]
		r.layer(layer+".alloc_mb", Median(xs), len(xs), "runtime TotalAlloc delta, median over mirror passes")
	}
	for name, xs := range flow {
		r.layer(name, Median(xs), len(xs), "dataflow.Context.Metrics delta over a pass")
	}
	for _, s := range lastSteps {
		r.note("dataflow deltas around %-24s tasks=%d shuffle_records=%d broadcasts=%d tasks_retried=%d",
			s.name, s.flow.TasksLaunched, s.flow.ShuffleRecords, s.flow.BroadcastsBuilt, s.flow.TasksRetried)
	}
	b := last.Blocker
	cmps := b.Filtered.TotalComparisons()
	r.layer("blocking.blocks", float64(b.Filtered.NumBlocks()), 1, "blocks after purging and filtering")
	r.layer("blocking.comparisons", float64(cmps), 1, "comparisons in the filtered blocks")
	r.layer("metablocking.edges", float64(len(b.Edges)), 1, "edges kept by meta-blocking")
	keep := Ratio{float64(len(b.Edges)), float64(cmps)}
	r.layerRatio("metablocking.keep_ratio", keep, 1, "edges / blocking.comparisons")
	r.layer("matching.pairs_scored", float64(len(b.Candidates)), 1, "candidate pairs scored by the matcher")
	mr := Ratio{float64(len(last.Matches)), float64(len(b.Candidates))}
	r.layerRatio("matching.match_ratio", mr, 1, "matches / pairs scored")
	r.layer("clustering.entities", float64(len(last.Entities)), 1, "entities resolved")
	ov := Ratio{Median(traced), Median(plain)}
	r.layerRatio("trace.overhead_ratio", ov, len(traced), "median traced mirror pass / median untraced pass, in s")
	return nil
}
