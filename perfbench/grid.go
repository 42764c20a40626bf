package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/runner"
	"catch/internal/sample"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// gridBudget is the bench budget (200k measured + 100k warmup
// instructions per job) over 20 study workloads, which span all five
// categories: 100 jobs per figure.
var gridBudget = experiments.Budget{Insts: 200_000, Warmup: 100_000, Workloads: 20}

// Spot checks re-simulate this many seeded jobs exactly, outside the
// timed window.
const (
	exactSpotChecks   = 6
	sampledSpotChecks = 30
)

// ladder rebuilds experiments.Fig13's configuration ladder: the noL2
// reference, then CATCH with the TACT components enabled cumulatively.
// If it ever drifts from the figure's own ladder, rendering the figure
// on the warm engine recomputes jobs, and the round fails its check.
func ladder() (labels []string, cfgs []config.SystemConfig) {
	noL2, ok := experiments.ConfigByName("nol2-6.5")
	if !ok {
		panic("perfbench: config nol2-6.5 missing from the registry")
	}
	steps := []struct {
		label                     string
		code, cross, deep, feeder bool
	}{
		{"Code", true, false, false, false},
		{"+CROSS", true, true, false, false},
		{"+Deep", true, true, true, false},
		{"+Feeder", true, true, true, true},
	}
	cfgs = []config.SystemConfig{noL2}
	for _, s := range steps {
		cfg := config.WithCATCH(noL2, "nol2-catch-"+s.label)
		cfg.Tact.EnableCode = s.code
		cfg.Tact.EnableCross = s.cross
		cfg.Tact.EnableDeep = s.deep
		cfg.Tact.EnableFeeder = s.feeder
		cfgs = append(cfgs, cfg)
		labels = append(labels, s.label)
	}
	return labels, cfgs
}

// grid is the figure's job list, configs outer and workloads inner.
type grid struct {
	budget experiments.Budget
	labels []string
	cfgs   []config.SystemConfig
	wls    []trace.Workload
	jobs   []runner.Job
	keys   []string // content addresses, computed during set-up
}

func newGrid(b experiments.Budget) *grid {
	g := &grid{budget: b, wls: workloads.StudyList(b.Workloads)}
	g.labels, g.cfgs = ladder()
	for _, cfg := range g.cfgs {
		for _, w := range g.wls {
			j := runner.STJob(cfg, w.WName, b.Insts, b.Warmup)
			g.jobs = append(g.jobs, j)
			g.keys = append(g.keys, j.Key())
		}
	}
	return g
}

func newGridEngine(sampled bool, n int) *runner.Engine {
	return runner.New(runner.Options{Workers: n, Cache: runner.NewCache(""), Sample: sampled})
}

// gridRound is one cold figure: a fresh engine computes every job, then
// the figure is rendered by experiments.Fig13 from the warm cache.
type gridRound struct {
	wall     time.Duration
	results  []runner.JobResult
	table    experiments.Table
	executed uint64
	sampled  uint64
	fallback uint64
}

func runGridRound(g *grid, eng *runner.Engine) (*gridRound, error) {
	experiments.UseEngine(eng)
	t0 := time.Now()
	out := eng.Run(context.Background(), g.jobs)
	if err := runner.FirstError(out); err != nil {
		return nil, err
	}
	tables := experiments.Fig13(g.budget)
	wall := time.Since(t0)
	if len(tables) != 1 {
		return nil, fmt.Errorf("fig13 rendered %d tables, want 1", len(tables))
	}
	return &gridRound{
		wall: wall, results: out, table: tables[0],
		executed: eng.Executed(), sampled: eng.Sampled(), fallback: eng.SampleFallbacks(),
	}, nil
}

// resultsOf flattens one round's per-job results (one per job).
func resultsOf(out []runner.JobResult) []core.Result {
	rs := make([]core.Result, len(out))
	for i := range out {
		rs[i] = out[i].Results[0]
	}
	return rs
}

// sameJSON reports whether a and b encode identically; results compare
// as a whole, floats bit for bit.
func sameJSON(a, b any) bool {
	ra, errA := json.Marshal(a)
	rb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ra, rb)
}

// setupsPerRound is how often each round times its set-up. One set-up
// takes about 10 ms; timing several before every round spreads the
// samples over the whole window, so one stretch of host noise at the
// start of a run does not decide setup_s.
const setupsPerRound = 10

// setUp builds what precedes the first job of a round: the ladder and
// the study list, every job with its content address, and the engine
// with its stores.
func setUp(sampled bool) (*grid, *runner.Engine) {
	return newGrid(gridBudget), newGridEngine(sampled, workers)
}

func runGridWorkload(o options, sampled bool) (*report, error) {
	rep := &report{}
	chk := &checker{}
	if o.trace {
		g, _ := setUp(sampled)
		return rep, tracedGrid(o, g, sampled, rep, chk)
	}

	var g *grid
	var rounds []*gridRound
	var setups, runS, jobL []float64
	win := newWindow(o.seconds)
	for win.open() {
		// Each round starts from a collected heap, as a fresh catchexp
		// process would; the previous round's stores are garbage.
		experiments.UseEngine(nil)
		runtime.GC()
		var eng *runner.Engine
		for k := 0; k < setupsPerRound; k++ {
			t0 := time.Now()
			g, eng = setUp(sampled)
			setups = append(setups, time.Since(t0).Seconds())
		}
		c0 := cpuSeconds()
		r, err := runGridRound(g, eng)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d: wall %.3fs cpu %.3fs\n", len(rounds), r.wall.Seconds(), cpuSeconds()-c0)
		rounds = append(rounds, r)
		runS = append(runS, r.wall.Seconds())
		for i := range r.results {
			jobL = append(jobL, r.results[i].Elapsed.Seconds())
		}
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	rep.set("run_s", median(runS), "s")
	setLatency(rep, "job", jobL)
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds of %d jobs, run_s %v\n", len(rounds), len(g.jobs), runS)

	rep.Attempted = len(g.jobs) * len(rounds)
	first := resultsOf(rounds[0].results)
	for k, r := range rounds {
		if !sameJSON(resultsOf(r.results), first) {
			chk.errorf("round %d results differ from round 0", k)
		}
		if r.executed != uint64(len(g.jobs)) {
			chk.errorf("round %d executed %d simulations for %d jobs", k, r.executed, len(g.jobs))
		}
	}
	checkGrid(chk, g, rounds[0], sampled, o.seed, nil)
	rep.Correct = chk.ok()
	return rep, nil
}

// checkGrid runs the output checks of one round. When lt is non-nil
// the exact spot-check simulations are instrumented into it.
func checkGrid(chk *checker, g *grid, r *gridRound, sampled bool, seed uint64, lt *layerTimes) {
	rs := resultsOf(r.results)
	checkCategories(chk, g.wls)
	checkTable(chk, &r.table, g, rs)
	checkJobs(chk, g, rs, sampled)
	rng := &splitmix{s: seed}
	if !sampled {
		for i := range r.results {
			if r.results[i].Key != g.keys[i] {
				chk.errorf("job %d: engine key %.12s, content address %.12s", i, r.results[i].Key, g.keys[i])
			}
		}
		checkOrder(chk, g, rs)
		for _, i := range rng.pick(len(g.jobs), exactSpotChecks) {
			exact := simulateExact(chk, g, i, seed, lt)
			if !sameJSON(exact, rs[i]) {
				chk.errorf("job %d (%s/%s): engine result differs from a direct RunST",
					i, g.jobs[i].Config.Name, g.jobs[i].Workloads[0])
			}
		}
		return
	}
	if r.sampled != uint64(len(g.jobs)) || r.fallback != 0 {
		chk.errorf("sampled path: %d of %d jobs sampled, %d fallbacks", r.sampled, len(g.jobs), r.fallback)
	}
	idx := rng.pick(len(g.jobs), sampledSpotChecks)
	exact := make([]core.Result, len(idx))
	for k, i := range idx {
		exact[k] = simulateExact(chk, g, i, seed, lt)
	}
	checkCoverage(chk, rs, idx, exact)
}

// checkOrder requires the paper's GeoMean order of the TACT steps:
// Code <= +Cross <= +Deep <= +Feeder.
func checkOrder(chk *checker, g *grid, rs []core.Result) {
	cells := figureCells(g, rs)
	geo := len(workloads.Categories)
	for i := 2; i < len(cells); i++ {
		if cells[i][geo] < cells[i-1][geo] {
			chk.errorf("GeoMean order: %s %+.2f%% < %s %+.2f%%",
				g.labels[i-1], cells[i][geo], g.labels[i-2], cells[i-1][geo])
		}
	}
}

// simulateExact re-runs job i directly on a fresh core.System.
func simulateExact(chk *checker, g *grid, i int, seed uint64, lt *layerTimes) core.Result {
	j := g.jobs[i]
	w, ok := workloads.ByName(j.Workloads[0])
	if !ok {
		chk.errorf("workload %s does not resolve", j.Workloads[0])
		return core.Result{}
	}
	sys := core.NewSystem(j.Config)
	if lt == nil {
		return sys.RunST(w.NewGen(), j.Insts, j.Warmup)
	}
	r, p, err := runInstrumented(sys, w.NewGen(), j.Insts, j.Warmup, clockCost(), seed+uint64(i))
	if err != nil {
		chk.errorf("instrumenting job %d: %v", i, err)
		return core.Result{}
	}
	lt.add(p)
	return r
}

func checkCategories(chk *checker, wls []trace.Workload) {
	seen := map[string]bool{}
	for _, w := range wls {
		seen[w.WCategory] = true
	}
	for _, c := range workloads.Categories {
		if !seen[c] {
			chk.errorf("study list lacks category %s", c)
		}
	}
}

// figureCells recomputes Fig 13 from raw results without the
// experiments package: for each TACT step and category, the geometric
// mean IPC over the noL2 reference's, as a percentage gain. Row 0 is
// the reference itself (all zero); the last column is the GeoMean.
func figureCells(g *grid, rs []core.Result) [][]float64 {
	nw := len(g.wls)
	cats := append(append([]string(nil), workloads.Categories...), "")
	geo := func(row int, cat string) float64 {
		var sum float64
		var n int
		for k := 0; k < nw; k++ {
			r := &rs[row*nw+k]
			if cat != "" && r.Category != cat {
				continue
			}
			sum += math.Log(r.IPC)
			n++
		}
		return math.Exp(sum / float64(n))
	}
	cells := make([][]float64, len(g.cfgs))
	for i := range g.cfgs {
		for _, c := range cats {
			cells[i] = append(cells[i], 100*(geo(i, c)/geo(0, c)-1))
		}
	}
	return cells
}

// checkTable compares every cell of the rendered figure with the
// independent recomputation.
func checkTable(chk *checker, t *experiments.Table, g *grid, rs []core.Result) {
	cells := figureCells(g, rs)
	if len(t.Rows) != len(g.labels) {
		chk.errorf("figure has %d rows, want %d", len(t.Rows), len(g.labels))
		return
	}
	for i, row := range t.Rows {
		if len(row) != len(cells[i+1])+1 || row[0] != g.labels[i] {
			chk.errorf("figure row %d is %q, want label %s and %d cells", i, row, g.labels[i], len(cells[i+1]))
			continue
		}
		for c, cell := range row[1:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				chk.errorf("figure cell %q: %v", cell, err)
				continue
			}
			if math.Abs(v-cells[i+1][c]) > 0.005+1e-9 {
				chk.errorf("figure %s column %d reads %s, recomputed %+.4f%%", row[0], c, cell, cells[i+1][c])
			}
		}
	}
}

// checkJobs checks properties every job must have: it measured exactly
// its budget, 0 < IPC <= core width, the per-level load counts add up
// to the total, and it carries its own config and workload.
func checkJobs(chk *checker, g *grid, rs []core.Result, sampled bool) {
	var measured, total int64
	for i := range rs {
		r := &rs[i]
		j := &g.jobs[i]
		at := fmt.Sprintf("job %d (%s/%s)", i, j.Config.Name, j.Workloads[0])
		if r.Insts != j.Insts {
			chk.errorf("%s measured %d instructions, budget %d", at, r.Insts, j.Insts)
		}
		if !(r.IPC > 0 && r.IPC <= float64(j.Config.CPU.Width)) {
			chk.errorf("%s IPC %v outside (0, %d]", at, r.IPC, j.Config.CPU.Width)
		}
		h := &r.Hier
		if h.LoadL1+h.LoadL2+h.LoadLLC+h.LoadMem != h.Loads {
			chk.errorf("%s loads by level %d+%d+%d+%d != %d", at, h.LoadL1, h.LoadL2, h.LoadLLC, h.LoadMem, h.Loads)
		}
		if r.Config != j.Config.Name || r.Workload != j.Workloads[0] {
			chk.errorf("%s result is for %s/%s", at, r.Config, r.Workload)
		}
		if sampled {
			if r.Sample == nil {
				chk.errorf("%s carries no sampling metadata", at)
				continue
			}
			measured += r.Sample.MeasuredInsts
			total += r.Sample.TotalInsts
		}
	}
	if sampled {
		want := float64(runner.DefaultSampleK) / runner.DefaultSampleIntervals
		if got := float64(measured) / float64(total); got != want {
			chk.errorf("measured %d of %d instructions (%.4f), spec fraction %.4f", measured, total, got, want)
		}
	}
}

// Published 1-sigma IPC error bars must cover the true error about as
// often as a normal error would: the check requires at least half the
// spot-checked jobs within 1 sigma and 80% within 2 sigma, and no job
// off by more than maxSampledErr.
const (
	minWithin1Sigma = 0.5
	minWithin2Sigma = 0.8
	maxSampledErr   = 0.25
)

func checkCoverage(chk *checker, rs []core.Result, idx []int, exact []core.Result) {
	var in1, in2 int
	var worst float64
	for k, i := range idx {
		s := &rs[i]
		if s.Sample == nil || exact[k].IPC == 0 {
			continue // reported by checkJobs / simulateExact
		}
		err := math.Abs(s.IPC/exact[k].IPC - 1)
		if err <= s.Sample.RelErrIPC {
			in1++
		}
		if err <= 2*s.Sample.RelErrIPC {
			in2++
		}
		worst = math.Max(worst, err)
	}
	n := float64(len(idx))
	fmt.Fprintf(os.Stderr, "perfbench: sampled error bars: %d/%d within 1 sigma, %d/%d within 2 sigma, worst %.2f%%\n",
		in1, len(idx), in2, len(idx), 100*worst)
	if float64(in1) < minWithin1Sigma*n || float64(in2) < minWithin2Sigma*n || worst > maxSampledErr {
		chk.errorf("sampled error bars cover %d/%d (1 sigma) and %d/%d (2 sigma), worst error %.2f%%",
			in1, len(idx), in2, len(idx), 100*worst)
	}
}

// tracedGrid is the traced run of a grid workload: untraced rounds
// through the engine for the execution-stack metrics, then the same
// jobs with every layer timed from outside, checked to give identical
// results.
func tracedGrid(o options, g *grid, sampled bool, rep *report, chk *checker) error {
	// The first round of a process runs slower (heap growth, cold
	// code); the untraced reference is the second.
	var base *gridRound
	var eng *runner.Engine
	for i := 0; i < 2; i++ {
		experiments.UseEngine(nil)
		runtime.GC()
		eng = newGridEngine(sampled, workers)
		var err error
		if base, err = runGridRound(g, eng); err != nil {
			return err
		}
	}
	var exec time.Duration
	for i := range base.results {
		exec += base.results[i].Elapsed
	}
	cs := eng.Cache().Stats()
	rep.set("runner.exec_s", exec.Seconds(), "s")
	rep.set("runner.idle_s", workers*base.wall.Seconds()-exec.Seconds(), "s")
	rep.set("runner.jobs_executed", float64(eng.Executed()), "count")
	rep.set("runner.cache_hit_ratio", float64(cs.Hits)/math.Max(1, float64(cs.Hits+cs.Misses)), "ratio")
	experiments.UseEngine(nil)
	eng = nil // the traced round builds its own stores
	runtime.GC()

	tr := newTracer()
	root := tr.begin("run", 0, 0, 0)
	lt := &layerTimes{}
	rs := resultsOf(base.results)
	traced, err := runTracedGrid(tr, root, g, sampled, rep, lt, chk, rs)
	tr.finish(root)
	if err != nil {
		return err
	}
	rep.set("bench.trace_overhead_s", traced.Seconds()-base.wall.Seconds(), "s")
	fmt.Fprintf(os.Stderr, "perfbench: untraced run_s %.3f, traced %.3f\n", base.wall.Seconds(), traced.Seconds())

	setSimCounts(rep, rs)
	rep.Attempted = 3 * len(g.jobs) // two untraced rounds, one traced
	checkGrid(chk, g, base, sampled, o.seed, lt)
	setSimLayers(rep, lt)
	if err := finishTrace(tr, root, filepath.Join(o.workDir, "trace-"+o.workload+".json")); err != nil {
		return err
	}
	if !sampled {
		if err := servePhase(o, rep, chk); err != nil {
			return err
		}
	}
	rep.Correct = chk.ok()
	return nil
}

// tracedJob is one job's result in the traced run.
type tracedJob struct {
	r   core.Result
	err error
}

// runTracedGrid runs the grid on its own pool of workers, each job
// inside spans around the layer calls it makes, and compares the
// results with the untraced engine's. It returns the traced wall time.
func runTracedGrid(tr *tracer, root int64, g *grid, sampled bool, rep *report, lt *layerTimes, chk *checker, base []core.Result) (time.Duration, error) {
	var (
		mu       sync.Mutex
		out      = make([]tracedJob, len(g.jobs))
		traces   = trace.NewStore("")
		snaps    = sample.NewStore("")
		planner  = sample.NewPlanner(traces, snaps)
		profiled = make(map[string]*sync.Once)
		resident = make(map[string]int64)
		images   = make(map[string]int)
		layer    = map[string]time.Duration{}
		restores int
		clockNs  = clockCost()
	)
	for _, w := range g.wls {
		profiled[w.WName] = new(sync.Once)
	}
	timed := func(name string, parent, op int64, lane int, f func() error) error {
		id := tr.begin(name, parent, op, lane)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		tr.finish(id)
		mu.Lock()
		layer[name] += d
		mu.Unlock()
		return err
	}
	spec := sample.Spec{Interval: g.budget.Insts / runner.DefaultSampleIntervals, K: runner.DefaultSampleK}

	t0 := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for lane := 1; lane <= workers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range jobs {
				j := g.jobs[i]
				w, _ := workloads.ByName(j.Workloads[0])
				op := int64(i + 1)
				id := tr.begin("job", root, op, lane)
				var res tracedJob
				if !sampled {
					sid := tr.begin("core.RunST", id, op, lane)
					sys := core.NewSystem(j.Config)
					r, p, err := runInstrumented(sys, w.NewGen(), j.Insts, j.Warmup, clockNs, uint64(i)+1)
					tr.finish(sid)
					res = tracedJob{r: r, err: err}
					if err == nil {
						mu.Lock()
						lt.add(p)
						mu.Unlock()
					}
				} else {
					res.err = tracedSampledJob(timed, id, op, lane, j, &w, traces, snaps, planner, spec, profiled[w.WName],
						func(m *trace.Materialized, img []byte) {
							mu.Lock()
							resident[m.Name()] = m.Len() * int64(unsafe.Sizeof(trace.Inst{}))
							images[j.Config.Name+"/"+m.Name()] = len(img)
							restores++
							mu.Unlock()
						}, &res.r)
				}
				tr.finish(id)
				out[i] = res
			}
		}(lane)
	}
	for i := range g.jobs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(t0)

	for i := range out {
		if out[i].err != nil {
			return 0, fmt.Errorf("traced job %d: %w", i, out[i].err)
		}
	}
	var measured, total int64
	var resMB, imgMB float64
	for _, b := range resident {
		resMB += float64(b) / (1 << 20)
	}
	for _, b := range images {
		imgMB += float64(b) / (1 << 20)
	}
	for i := range out {
		if s := out[i].r.Sample; s != nil {
			measured += s.MeasuredInsts
			total += s.TotalInsts
		}
	}
	rep.set("trace.materialize_s", layer["trace.Materialize"].Seconds(), "s")
	rep.set("sample.profile_s", layer["sample.ProfileWorkload"].Seconds(), "s")
	rep.set("sample.warm_s", layer["sample.Warm"].Seconds(), "s")
	// Planner.Run repeats one profile per workload and one restore per
	// job internally; measure_s removes what those cost when timed
	// directly.
	measure := layer["sample.Planner.Run"] - layer["sample.ProfileWorkload"] - layer["snap.Restore"]
	if !sampled {
		measure = 0
	}
	rep.set("sample.measure_s", measure.Seconds(), "s")
	rep.set("sample.measured_inst_ratio", float64(measured)/math.Max(1, float64(total)), "ratio")
	rep.set("snap.restore_ms", 1000*layer["snap.Restore"].Seconds()/math.Max(1, float64(restores)), "ms")
	rep.set("trace.resident_mb", resMB, "MiB")
	rep.set("snap.image_mb", imgMB, "MiB")
	for i := range out {
		if !sameJSON(out[i].r, base[i]) {
			chk.errorf("traced job %d (%s/%s) differs from the untraced run", i, g.jobs[i].Config.Name, g.jobs[i].Workloads[0])
		}
	}
	return wall, nil
}

// tracedSampledJob resolves one sampled job through the sampling
// layers, each called directly inside its own span.
func tracedSampledJob(timed func(string, int64, int64, int, func() error) error, parent, op int64, lane int,
	j runner.Job, w *trace.Workload, traces *trace.Store, snaps *sample.Store, planner *sample.Planner,
	spec sample.Spec, once *sync.Once, note func(*trace.Materialized, []byte), out *core.Result) error {
	var m *trace.Materialized
	if err := timed("trace.Materialize", parent, op, lane, func() (err error) {
		m, err = traces.Materialize(w, j.Warmup+j.Insts)
		return err
	}); err != nil {
		return err
	}
	var perr error
	once.Do(func() {
		perr = timed("sample.ProfileWorkload", parent, op, lane, func() error {
			_, err := sample.ProfileWorkload(m, j.Insts, j.Warmup, spec.Interval)
			return err
		})
	})
	if perr != nil {
		return perr
	}
	var img []byte
	if err := timed("sample.Warm", parent, op, lane, func() (err error) {
		img, err = snaps.Warm(j.Config, w, m, j.Warmup)
		return err
	}); err != nil {
		return err
	}
	if err := timed("snap.Restore", parent, op, lane, func() error {
		return core.NewSystem(j.Config).Restore(img)
	}); err != nil {
		return err
	}
	note(m, img)
	return timed("sample.Planner.Run", parent, op, lane, func() (err error) {
		*out, err = planner.Run(j.Config, w, j.Insts, j.Warmup, spec)
		return err
	})
}
