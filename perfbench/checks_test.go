package main

import (
	"strings"
	"testing"
	"time"

	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/runner"
)

// testBudget keeps the check tests to a few hundred milliseconds while
// still spanning all five workload categories.
var testBudget = experiments.Budget{Insts: 4_000, Warmup: 2_000, Workloads: 10}

func testRound(t *testing.T, sampled bool) (*grid, *gridRound) {
	t.Helper()
	b := testBudget
	if sampled {
		b.Insts = 16_000 // the default spec needs 16 intervals
	}
	g := newGrid(b)
	r, err := runGridRound(g, newGridEngine(sampled, workers))
	if err != nil {
		t.Fatal(err)
	}
	return g, r
}

// failsWith runs check and requires an error mentioning want.
func failsWith(t *testing.T, want string, check func(*checker)) {
	t.Helper()
	chk := &checker{}
	check(chk)
	for _, e := range chk.errs {
		if strings.Contains(e, want) {
			return
		}
	}
	t.Errorf("perturbed result passed the check; want an error containing %q, got %q", want, chk.errs)
}

func TestGridChecksPassOnEngineOutput(t *testing.T) {
	g, r := testRound(t, false)
	chk := &checker{}
	checkGrid(chk, g, r, false, 1, nil)
	// The order check is a property of the full-budget figure; tiny
	// budgets need not reproduce it.
	var errs []string
	for _, e := range chk.errs {
		if !strings.Contains(e, "GeoMean order") {
			errs = append(errs, e)
		}
	}
	if len(errs) > 0 {
		t.Fatal(errs)
	}
}

func TestGridChecksFailOnPerturbedResults(t *testing.T) {
	g, r := testRound(t, false)
	fresh := func() []core.Result { return resultsOf(r.results) }

	t.Run("table cell", func(t *testing.T) {
		tab := r.table
		tab.Rows = append([][]string(nil), tab.Rows...)
		tab.Rows[1] = append([]string(nil), tab.Rows[1]...)
		tab.Rows[1][2] = "+99.99%"
		failsWith(t, "recomputed", func(c *checker) { checkTable(c, &tab, g, fresh()) })
	})
	t.Run("raw IPC behind the table", func(t *testing.T) {
		rs := fresh()
		rs[len(rs)-1].IPC *= 1.5
		failsWith(t, "recomputed", func(c *checker) { checkTable(c, &r.table, g, rs) })
	})
	t.Run("budget", func(t *testing.T) {
		rs := fresh()
		rs[3].Insts++
		failsWith(t, "measured", func(c *checker) { checkJobs(c, g, rs, false) })
	})
	t.Run("IPC above width", func(t *testing.T) {
		rs := fresh()
		rs[0].IPC = float64(g.cfgs[0].CPU.Width) + 0.5
		failsWith(t, "IPC", func(c *checker) { checkJobs(c, g, rs, false) })
	})
	t.Run("IPC zero", func(t *testing.T) {
		rs := fresh()
		rs[0].IPC = 0
		failsWith(t, "IPC", func(c *checker) { checkJobs(c, g, rs, false) })
	})
	t.Run("loads by level", func(t *testing.T) {
		rs := fresh()
		rs[5].Hier.LoadLLC++
		failsWith(t, "loads by level", func(c *checker) { checkJobs(c, g, rs, false) })
	})
	t.Run("GeoMean order", func(t *testing.T) {
		rs := fresh()
		nw := len(g.wls)
		for k := 0; k < nw; k++ {
			rs[4*nw+k].IPC = rs[3*nw+k].IPC * 0.9 // +Feeder below +Deep
		}
		failsWith(t, "GeoMean order", func(c *checker) { checkOrder(c, g, rs) })
	})
	t.Run("re-simulation", func(t *testing.T) {
		rr := *r
		rr.results = append([]runner.JobResult(nil), r.results...)
		for i := range rr.results {
			res := rr.results[i].Results[0]
			res.Cycles++
			rr.results[i].Results = []core.Result{res}
		}
		failsWith(t, "direct RunST", func(c *checker) { checkGrid(c, g, &rr, false, 7, nil) })
	})
}

func TestSampledChecks(t *testing.T) {
	g, r := testRound(t, true)
	rs := resultsOf(r.results)
	chk := &checker{}
	checkJobs(chk, g, rs, true)
	if !chk.ok() {
		t.Fatal(chk.errs)
	}
	t.Run("fraction", func(t *testing.T) {
		bad := resultsOf(r.results)
		s := *bad[0].Sample
		s.MeasuredInsts += s.Interval
		bad[0].Sample = &s
		failsWith(t, "spec fraction", func(c *checker) { checkJobs(c, g, bad, true) })
	})
	t.Run("missing metadata", func(t *testing.T) {
		bad := resultsOf(r.results)
		bad[2].Sample = nil
		failsWith(t, "no sampling metadata", func(c *checker) { checkJobs(c, g, bad, true) })
	})
	t.Run("error bars", func(t *testing.T) {
		idx := []int{0, 1, 2, 3}
		exact := make([]core.Result, len(idx))
		bad := resultsOf(r.results)
		for k, i := range idx {
			exact[k] = bad[i]
			s := *bad[i].Sample
			s.RelErrIPC = 0.001
			bad[i].Sample = &s
			bad[i].IPC = exact[k].IPC * 1.1 // off by 10% against a 0.1% bar
		}
		failsWith(t, "error bars cover", func(c *checker) { checkCoverage(c, bad, idx, exact) })
	})
	t.Run("fallback", func(t *testing.T) {
		rr := *r
		rr.fallback = 1
		failsWith(t, "fallbacks", func(c *checker) { checkGrid(c, g, &rr, true, 1, nil) })
	})
}

func TestSelfTimesGoToSpansNotWaiting(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "job", Start: ms(0), End: ms(60)},
		{ID: 3, Parent: 1, Name: "job", Start: ms(10), End: ms(90)}, // a second worker
		{ID: 4, Parent: 2, Name: "sim", Start: ms(20), End: ms(50)},
		{ID: 5, Name: "probe", Lane: 10, Start: ms(30), End: ms(36)}, // unrelated background request
	}
	got := selfTimes(spans)
	// 0-10 the first job alone; 10-20 both jobs; 20-30 the second job
	// and sim (the first job waits on sim); 30-36 those two and the
	// probe; 36-50 the second job and sim; 50-90 jobs; 90-100 the run.
	want := map[string]time.Duration{"run": ms(10), "job": ms(74), "sim": ms(14), "probe": ms(2)}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for name, d := range want {
		if got[name] != d {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}
