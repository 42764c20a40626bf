package main

import (
	"fmt"
	"time"

	"catch/internal/cache"
	"catch/internal/core"
	"catch/internal/cpu"
	"catch/internal/trace"
)

// Simulator-layer timing from outside the simulator: the benchmark
// wraps the exported hooks of a core.System (CPU.Ports, Tact.IssueData)
// and the trace.Generator handed to RunST. Timing every call would
// cost more than the work (a clock read is about half of one simulated
// instruction's CPU time), so a pseudo-random 1 in samplePeriod calls
// is timed, the calibrated cost of the clock itself is subtracted from
// each sample, and the sum is scaled by calls/sampled.

const samplePeriod = 128 // must be a power of two

const (
	hNext = iota
	hLoad
	hFetch
	hStore
	hDispatch
	hRetire
	hIssueInDispatch
	hIssueOther
	nHooks
)

type hookStat struct {
	calls, sampled uint64
	ns             float64 // sampled time, clock cost removed
}

// estimate is the hook's estimated total time in ns.
func (h *hookStat) estimate() float64 {
	if h.sampled == 0 {
		return 0
	}
	return h.ns * float64(h.calls) / float64(h.sampled)
}

// simProbe holds one system's hook timings. A probe is used by the one
// goroutine that runs its system, so it needs no locking.
type simProbe struct {
	rng        uint64
	clockNs    float64 // cost of one timed sample's clock reads
	hooks      [nHooks]hookStat
	inDispatch bool

	hostNs float64 // wall time of the whole RunST call
	insts  int64   // instructions simulated, warmup included
}

// layerTimes aggregates probes over many jobs.
type layerTimes struct {
	hooks  [nHooks]hookStat
	hostNs float64
	insts  int64
	// probeNs is the clock cost of every sample taken, which the host
	// wall time includes and no layer owns.
	probeNs float64
}

func (l *layerTimes) add(p *simProbe) {
	for i := range p.hooks {
		l.hooks[i].calls += p.hooks[i].calls
		l.hooks[i].sampled += p.hooks[i].sampled
		l.hooks[i].ns += p.hooks[i].ns
	}
	l.hostNs += p.hostNs
	l.insts += p.insts
	var sampled uint64
	for i := range p.hooks {
		sampled += p.hooks[i].sampled
	}
	l.probeNs += float64(sampled) * p.clockNs
}

// clockCost measures the mean cost of one time.Now/time.Since pair.
func clockCost() float64 {
	const n = 200_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum.Nanoseconds()) / n
}

func (p *simProbe) sample() bool {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng&(samplePeriod-1) == 0
}

func (p *simProbe) record(h int, t0 time.Time) {
	d := float64(time.Since(t0).Nanoseconds()) - p.clockNs
	if d < 0 {
		d = 0
	}
	p.hooks[h].sampled++
	p.hooks[h].ns += d
}

// instrument wraps the hooks of sys's first core and returns the
// generator to pass to RunST in place of gen.
func (p *simProbe) instrument(sys *core.System, gen trace.Generator) (trace.Generator, error) {
	vs, ok1 := gen.(trace.ValueSource)
	pw, ok2 := gen.(trace.Prewarmer)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("generator %s lacks ValueAt/PrewarmRegions", gen.Name())
	}
	c := sys.Sims[0]
	ports := c.CPU.Ports
	load, fetch, store, dispatch, retire := ports.Load, ports.FetchLine, ports.StoreCommit, ports.OnDispatch, ports.OnRetire
	c.CPU.Ports = cpu.Ports{
		Load: func(in *trace.Inst, ready int64) (int64, cache.HitLevel) {
			p.hooks[hLoad].calls++
			if !p.sample() {
				return load(in, ready)
			}
			t0 := time.Now()
			lat, lvl := load(in, ready)
			p.record(hLoad, t0)
			return lat, lvl
		},
		FetchLine: func(line uint64, now int64) int64 {
			p.hooks[hFetch].calls++
			if !p.sample() {
				return fetch(line, now)
			}
			t0 := time.Now()
			lat := fetch(line, now)
			p.record(hFetch, t0)
			return lat
		},
		StoreCommit: func(in *trace.Inst, commit int64) {
			p.hooks[hStore].calls++
			if !p.sample() {
				store(in, commit)
				return
			}
			t0 := time.Now()
			store(in, commit)
			p.record(hStore, t0)
		},
		OnDispatch: func(in *trace.Inst, at, seq int64) {
			p.hooks[hDispatch].calls++
			p.inDispatch = true
			if !p.sample() {
				dispatch(in, at, seq)
			} else {
				t0 := time.Now()
				dispatch(in, at, seq)
				p.record(hDispatch, t0)
			}
			p.inDispatch = false
		},
		OnRetire: func(r *cpu.Retired) {
			p.hooks[hRetire].calls++
			if !p.sample() {
				retire(r)
				return
			}
			t0 := time.Now()
			retire(r)
			p.record(hRetire, t0)
		},
	}
	if c.Tact != nil {
		issue := c.Tact.IssueData
		c.Tact.IssueData = func(addr uint64, now int64) {
			h := hIssueOther
			if p.inDispatch {
				h = hIssueInDispatch
			}
			p.hooks[h].calls++
			if !p.sample() {
				issue(addr, now)
				return
			}
			t0 := time.Now()
			issue(addr, now)
			p.record(h, t0)
		}
	}
	return &timedGen{g: gen, vs: vs, pw: pw, p: p}, nil
}

// timedGen times Next and forwards the optional generator interfaces
// core.System looks for, so the simulation sees the same workload.
type timedGen struct {
	g  trace.Generator
	vs trace.ValueSource
	pw trace.Prewarmer
	p  *simProbe
}

func (t *timedGen) Name() string                       { return t.g.Name() }
func (t *timedGen) Category() string                   { return t.g.Category() }
func (t *timedGen) Reset()                             { t.g.Reset() }
func (t *timedGen) ValueAt(addr uint64) (uint64, bool) { return t.vs.ValueAt(addr) }
func (t *timedGen) PrewarmRegions() []trace.Region     { return t.pw.PrewarmRegions() }
func (t *timedGen) Next(in *trace.Inst) bool {
	t.p.hooks[hNext].calls++
	if !t.p.sample() {
		return t.g.Next(in)
	}
	t0 := time.Now()
	ok := t.g.Next(in)
	t.p.record(hNext, t0)
	return ok
}

// runInstrumented simulates one single-thread job on a fresh system
// with its hooks timed, returning the result and the probe.
func runInstrumented(sys *core.System, gen trace.Generator, insts, warmup int64, clockNs float64, seed uint64) (core.Result, *simProbe, error) {
	p := &simProbe{rng: seed | 1, clockNs: clockNs}
	tg, err := p.instrument(sys, gen)
	if err != nil {
		return core.Result{}, nil, err
	}
	t0 := time.Now()
	r := sys.RunST(tg, insts, warmup)
	p.hostNs = float64(time.Since(t0).Nanoseconds())
	p.insts = insts + warmup
	return r, p, nil
}

// setSimLayers reports the per-instruction host time of each simulator
// layer. Self times subtract the nested hooks: TACT's dispatch hook
// contains its prefetch issues, and the CPU step is what RunST spends
// outside every hook (minus the probes' own clock reads).
func setSimLayers(r *report, l *layerTimes) {
	if l.insts == 0 {
		return
	}
	per := func(ns float64) float64 { return ns / float64(l.insts) }
	est := func(h int) float64 { return l.hooks[h].estimate() }
	issueIn := est(hIssueInDispatch)
	dispatch := est(hDispatch)
	hooked := est(hNext) + est(hLoad) + est(hFetch) + est(hStore) + dispatch + est(hRetire)
	r.set("core.host_ns_per_inst", per(l.hostNs), "ns")
	r.set("trace.next_ns_per_inst", per(est(hNext)), "ns")
	r.set("cpu.step_self_ns_per_inst", per(l.hostNs-hooked-l.probeNs), "ns")
	r.set("cache.load_ns_per_inst", per(est(hLoad)), "ns")
	r.set("cache.fetch_ns_per_inst", per(est(hFetch)), "ns")
	r.set("cache.store_ns_per_inst", per(est(hStore)), "ns")
	r.set("criticality.retire_ns_per_inst", per(est(hRetire)), "ns")
	r.set("tact.dispatch_self_ns_per_inst", per(dispatch-issueIn), "ns")
	r.set("tact.issue_ns_per_inst", per(issueIn+est(hIssueOther)), "ns")
}

// setSimCounts reports simulated (not host) statistics summed over rs.
// A change meant only to speed up the simulator must leave them equal.
func setSimCounts(r *report, rs []core.Result) {
	var insts, issued, dropPresent, walks, rowHits, rowAll uint64
	for i := range rs {
		x := &rs[i]
		insts += uint64(x.Insts)
		issued += x.Hier.TactIssued
		dropPresent += x.Hier.TactDropPresent
		walks += x.Crit.Walks
		rowHits += x.DRAM.RowHits
		rowAll += x.DRAM.RowHits + x.DRAM.RowMisses + x.DRAM.RowConflicts
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("sim.insts", float64(insts), "count")
	r.set("tact.issues_per_kinst", 1000*ratio(issued, insts), "1/kinst")
	r.set("tact.drop_present_ratio", ratio(dropPresent, issued), "ratio")
	r.set("criticality.walks_per_kinst", 1000*ratio(walks, insts), "1/kinst")
	r.set("memory.row_hit_rate", ratio(rowHits, rowAll), "ratio")
}
