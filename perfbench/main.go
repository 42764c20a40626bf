// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed wall-clock window, checks
// the program's outputs, and prints a single JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	fig13          the Fig 13 ladder through the exact engine path
//	fig13-sampled  the same grid through the -sample engine path
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones, writes a Chrome trace
// and prints a layer-share table on stderr. fig13's traced run ends
// with a serve phase, 2 closed-loop clients against a 3-node catchd
// cluster, for the cluster layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers bounds the load: the grid engines run this many simulation
// workers and the serve phase this many clients (the benchmark host
// has two CPUs).
const workers = 2

// tailPct is the tail percentile reported for every latency, and
// chunkSize the samples per chunk it is computed on: each chunk has at
// least ten samples beyond it.
const (
	tailPct   = 90
	chunkSize = 100
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// checker collects output-check failures; a run with any is reported
// with correct=false.
type checker struct{ errs []string }

func (c *checker) errorf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.errs = append(c.errs, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

func (c *checker) ok() bool { return len(c.errs) == 0 }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// workDir holds everything the run writes (cluster caches, the
	// Chrome trace); it lives under the build directory of the checkout.
	workDir string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "fig13 or fig13-sampled")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for files the run writes")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	var rep *report
	var err error
	switch o.workload {
	case "fig13":
		rep, err = runGridWorkload(o, false)
	case "fig13-sampled":
		rep, err = runGridWorkload(o, true)
	default:
		err = fmt.Errorf("unknown workload %q (want fig13 or fig13-sampled)", o.workload)
	}
	if err == nil {
		err = conform(rep, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// benchmarkFile declares every metric by name and unit; the command
// runs from the repository root, where it lives.
const benchmarkFile = "BENCHMARK.json"

// notExercised lists, per workload, the per-layer metric prefixes of
// layers the workload never calls; they report zero.
var notExercised = map[string][]string{
	"fig13-sampled": {"cluster."},
}

// conform makes rep carry exactly the metrics the benchmark declares
// for the mode: end-to-end ones untraced, per-layer ones traced, each
// with its declared unit.
func conform(rep *report, o options) error {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	want := decl.EndToEnd
	if o.trace {
		want = decl.PerLayer
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			for _, p := range notExercised[o.workload] {
				if strings.HasPrefix(d.Name, p) {
					m, ok = metric{Value: 0, Unit: d.Unit}, true
				}
			}
		}
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.workload, d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	rep.Metrics = out
	return nil
}

// window is the measured wall-clock window of one run.
type window struct {
	start time.Time
	limit time.Duration
}

func newWindow(seconds int) window {
	return window{start: time.Now(), limit: time.Duration(seconds) * time.Second}
}

// open reports whether another whole round may start.
func (w window) open() bool { return time.Since(w.start) < w.limit }

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value of xs, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// setLatency reports the median and tail of a latency series (seconds,
// in the order measured) in milliseconds. The series is cut into
// consecutive chunks of at least chunkSize samples, and each statistic
// is the median over the chunks, so a burst of host noise that slows
// one stretch of the run moves one chunk, not the result.
func setLatency(r *report, prefix string, xs []float64) {
	n := max(1, len(xs)/chunkSize)
	var p50s, tails []float64
	for c := 0; c < n; c++ {
		chunk := xs[c*len(xs)/n : (c+1)*len(xs)/n]
		p50s = append(p50s, 1000*median(chunk))
		tails = append(tails, 1000*percentile(chunk, tailPct))
	}
	r.set(prefix+"_p50_ms", median(p50s), "ms")
	r.set(prefix+"_tail_ms", median(tails), "ms")
	fmt.Fprintf(os.Stderr, "perfbench: %s latency: %d samples in %d chunks, p50 %.3f ms, p%d %.3f ms\n",
		prefix, len(xs), n, median(p50s), tailPct, median(tails))
}

// splitmix is the benchmark's seeded input generator.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0,n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pick returns k distinct indices of [0,n) in ascending order.
func (r *splitmix) pick(n, k int) []int {
	if k > n {
		k = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := perm[:k]
	sort.Ints(out)
	return out
}
