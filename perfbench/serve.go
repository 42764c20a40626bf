package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"catch/internal/cluster"
	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/runner"
	"catch/internal/telemetry"
	"catch/internal/workloads"
)

// The serve phase of fig13's traced run: a closed loop of two clients
// against a 3-node in-process catchd cluster (2 replicas, on-disk
// result caches, one engine worker per node), traced, whose cluster.*
// metrics, request counts and checks join fig13's report. It is not a
// workload of its own: its latencies did not repeat within the
// benchmark's bounds on a 2-vCPU host (see README.md). Writes run
// beside reads:
//
//   - the writer sends cold sweeps back to back, each to a seeded node;
//     they compute new jobs, write them to disk and fill replicas;
//   - the reader repeats a fixed round of six requests on the writer's
//     sweeps: GET, repeated sweep, GET If-None-Match (matching),
//     repeated sweep, GET, GET If-None-Match (stale).
//
// Giving each client one kind of work keeps the load the same at every
// instant; two clients that both mixed cold sweeps in would overlap
// their cold sweeps at random, and the latencies would follow that
// overlap more than the program. Repeated sweeps go to a seeded node
// and resolve through the mem -> disk -> peer tiers. The first GET of a
// round reads a key of the newest sweep on the one node outside its
// replica set, so the peer tier serves it and promotes it; the other
// three read from a seeded replica. A fixed quarter of GETs thus takes
// the peer path, which keeps the median inside the local mode and the
// tail inside the peer mode.
const (
	serveNodes     = 3
	serveReplicas  = 2
	serveInsts     = 10_000 // short simulations: 15k instructions a job
	serveWarmup    = 5_000
	serveBudgets   = 64 // distinct insts and warmup offsets (see newSweep)
	serveConfigs   = 2  // configs per sweep
	serveWorkloads = 3  // workloads per sweep
	bodyChecks     = 4
	serveSeconds   = 10

	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

type opKind int

const (
	opCold opKind = iota
	opRepeat
	opGetRemote
	opGet
	opGetMatch
	opGetStale
)

var (
	writerRound = []opKind{opCold}
	readerRound = []opKind{opGetRemote, opRepeat, opGetMatch, opRepeat, opGet, opGetStale}
)

// history is the writer's sweeps, shared with the reader.
type history struct {
	mu     sync.Mutex
	sweeps []sweepReq
}

func (h *history) add(s sweepReq) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sweeps = append(h.sweeps, s)
}

// snapshot returns the sweeps so far (the slice is never written in
// place, only appended to).
func (h *history) snapshot() []sweepReq {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sweeps
}

type rigNode struct {
	url  string
	srv  *http.Server
	node *cluster.Node
}

// rig is one running cluster.
type rig struct {
	nodes  []*rigNode
	cancel context.CancelFunc
	served sync.WaitGroup
}

// startRig brings up the cluster and waits until every node reports
// every peer live. Each node's requests become spans of tr.
func startRig(dir string, seed uint64, tr *tracer) (*rig, error) {
	rg := &rig{}
	var lns []net.Listener
	var urls []string
	for i := 0; i < serveNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				_ = l.Close() // already failing; the listen error is reported
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	rg.cancel = cancel
	for i := 0; i < serveNodes; i++ {
		reg := telemetry.NewRegistry()
		eng := runner.New(runner.Options{
			Workers: 1,
			Cache:   runner.NewCacheOpts(runner.CacheOptions{Dir: filepath.Join(dir, fmt.Sprintf("node%d", i))}),
			Retries: 1,
			Metrics: reg,
		})
		inner := &runner.Server{Engine: eng, Resolve: experiments.ConfigByName, Metrics: reg}
		node, err := cluster.NewNode(cluster.Options{
			Self: urls[i], Peers: urls, Engine: eng,
			Replicas:       serveReplicas,
			StealInterval:  2 * time.Second,
			ProbeInterval:  time.Second,
			RepairInterval: 30 * time.Second,
			Seed:           seed + uint64(i),
			Metrics:        reg,
		})
		if err != nil {
			cancel()
			for _, l := range lns[i:] {
				_ = l.Close() // already failing; the node error is reported
			}
			rg.stop()
			return nil, err
		}
		h := (&cluster.Server{Node: node, Resolve: experiments.ConfigByName, Inner: inner.Handler()}).Handler()
		srv := &http.Server{Handler: spanned(h, tr, 10+i)}
		rn := &rigNode{url: urls[i], srv: srv, node: node}
		rg.nodes = append(rg.nodes, rn)
		rg.served.Add(1)
		go func(ln net.Listener) {
			defer rg.served.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed on stop
		}(lns[i])
		node.Start(ctx)
	}
	if err := rg.waitLive(); err != nil {
		rg.stop()
		return nil, err
	}
	return rg, nil
}

func (rg *rig) waitLive() error {
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range rg.nodes {
		for {
			var st cluster.StatusDoc
			err := getJSON(n.url+"/v1/cluster/status", &st)
			live := err == nil && len(st.Health) == serveNodes-1
			for _, h := range st.Health {
				live = live && h.State == "live"
			}
			if live {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s never reported its peers live (last error %v)", n.url, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// stop shuts every node down and waits for its server to return.
func (rg *rig) stop() {
	rg.cancel()
	for _, n := range rg.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			_ = n.srv.Close() // shutdown timed out; force it
		}
		cancel()
	}
	rg.served.Wait()
}

// owners returns the base URLs of key's replica set.
func (rg *rig) owners(key string) []string {
	return rg.nodes[0].node.Ring().Owners(key, serveReplicas, nil)
}

// outsider returns the base URL of a node outside key's replica set.
func (rg *rig) outsider(key string) string {
	owners := rg.owners(key)
	for _, n := range rg.nodes {
		if !slices.Contains(owners, n.url) {
			return n.url
		}
	}
	return owners[0]
}

// spanned records one span per request a node serves. Requests from
// the benchmark's clients carry their span as parent; cluster-internal
// requests (shards, fills, peer reads, probes) have none.
func spanned(h http.Handler, tr *tracer, lane int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent on internal calls
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		id := tr.begin("node "+route(r.URL.Path), parent, op, lane)
		h.ServeHTTP(w, r)
		tr.finish(id)
	})
}

func route(path string) string {
	if strings.HasPrefix(path, "/v1/results/") {
		return "/v1/results"
	}
	return path
}

var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8},
}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sweepReq is one cold sweep a client made, kept for repeats and GETs.
type sweepReq struct {
	coord string // the node the cold sweep went to; it caches every result
	body  []byte
	keys  []string
	jobs  []runner.Job
}

type opResult struct {
	kind opKind
	err  error
}

// client is one closed-loop load generator.
type client struct {
	id      int
	rng     splitmix
	rg      *rig
	tr      *tracer
	root    int64    // the phase's root span
	kinds   []opKind // the client's round
	hist    *history
	sweeps  int
	wlOrder []int // rest of the current workload permutation
	ops     []opResult
}

var configNames = experiments.ConfigNames()

func (c *client) newSweep() (sweepReq, error) {
	cfgIdx := c.rng.pick(len(configNames), serveConfigs)
	all := workloads.All()
	var wls []string
	for len(wls) < serveWorkloads {
		// Workloads come from a seeded permutation taken in turn, so
		// every run simulates each workload about equally often and the
		// work per run does not depend on the seed.
		if len(c.wlOrder) == 0 {
			c.wlOrder = c.rng.perm(len(all))
		}
		name := all[c.wlOrder[0]].WName
		c.wlOrder = c.wlOrder[1:]
		if !slices.Contains(wls, name) {
			wls = append(wls, name)
		}
	}
	// Every cold sweep gets an (insts, warmup) pair no other sweep of
	// the run uses, so its jobs are new to the cluster. The pairs vary
	// the work per sweep by at most 4%, in the same order on every run.
	u := int64(c.sweeps)
	c.sweeps++
	insts := serveInsts + u%serveBudgets
	warmup := serveWarmup + (u/serveBudgets)%serveBudgets
	req := runner.SweepRequest{Insts: insts, Warmup: warmup, Workloads: wls}
	var s sweepReq
	for _, i := range cfgIdx {
		req.Configs = append(req.Configs, configNames[i])
	}
	for _, name := range req.Configs {
		cfg, _ := experiments.ConfigByName(name)
		for _, w := range req.Workloads {
			j := runner.STJob(cfg, w, insts, warmup)
			s.jobs = append(s.jobs, j)
			s.keys = append(s.keys, j.Key())
		}
	}
	body, err := json.Marshal(req)
	s.body = body
	return s, err
}

// do sends one request inside a client span and returns the status.
func (c *client) do(req *http.Request, op int64, name string, into func([]byte) error) (int, error) {
	id := c.tr.begin(name, c.root, op, 1+c.id)
	defer c.tr.finish(id)
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if into != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, into(body)
	}
	return resp.StatusCode, nil
}

func (c *client) node() string { return c.rg.nodes[c.rng.intn(len(c.rg.nodes))].url }

// sweep posts s and checks that every job came back ok under its key.
func (c *client) sweep(node string, s *sweepReq, op int64, name string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, node+"/v1/sweep", bytes.NewReader(s.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, op, name, func(body []byte) error {
		var doc struct {
			Jobs []runner.JobResult `json:"jobs"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		if len(doc.Jobs) != len(s.keys) {
			return fmt.Errorf("sweep returned %d jobs, sent %d", len(doc.Jobs), len(s.keys))
		}
		for i, j := range doc.Jobs {
			if j.Status != runner.StatusOK || j.Key != s.keys[i] || len(j.Results) != 1 {
				return fmt.Errorf("sweep job %d: status %q key %.12s results %d (%s)", i, j.Status, j.Key, len(j.Results), j.Err)
			}
		}
		return nil
	})
}

// get fetches a result, optionally conditional, and checks that a 304
// comes back exactly when the tag matches.
func (c *client) get(node, key, inm string, op int64) (int, error) {
	req, err := http.NewRequest(http.MethodGet, node+"/v1/results/"+key, nil)
	if err != nil {
		return 0, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	code, err := c.do(req, op, "client GET", func(body []byte) error {
		var doc struct {
			Key     string        `json:"key"`
			Results []core.Result `json:"results"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		if doc.Key != key || len(doc.Results) != 1 {
			return fmt.Errorf("GET %.12s returned key %.12s with %d results", key, doc.Key, len(doc.Results))
		}
		return nil
	})
	if err != nil {
		return code, err
	}
	wantNotModified := inm != "" && inm == runner.ETagFor(key)
	if (code == http.StatusNotModified) != wantNotModified {
		return code, fmt.Errorf("GET %.12s with If-None-Match %q answered %d", key, inm, code)
	}
	if code != http.StatusOK && code != http.StatusNotModified {
		return code, fmt.Errorf("GET %.12s: status %d", key, code)
	}
	return code, nil
}

// round runs one whole round of the client's requests.
func (c *client) round(opBase *int64) {
	for c.kinds[0] != opCold && len(c.hist.snapshot()) == 0 {
		time.Sleep(time.Millisecond) // the writer's first sweep is in flight
	}
	for _, k := range c.kinds {
		hist := c.hist.snapshot()
		*opBase++
		op := *opBase
		var code int
		var err error
		switch k {
		case opCold:
			var sw sweepReq
			if sw, err = c.newSweep(); err == nil {
				sw.coord = c.node()
				code, err = c.sweep(sw.coord, &sw, op, "client cold sweep")
			}
			// The reader reads this sweep's keys, so it joins the
			// history even if it failed (the failure counts).
			c.hist.add(sw)
		case opRepeat:
			// Any sweep but the newest, whose keys the remote GETs read
			// first.
			sw := &hist[c.rng.intn(max(1, len(hist)-1))]
			code, err = c.sweep(c.node(), sw, op, "client repeat sweep")
		case opGetRemote:
			// A key of the newest sweep whose outsider is not the
			// sweep's coordinator holds no copy there yet.
			newest := &hist[len(hist)-1]
			var keys []string
			for _, k := range newest.keys {
				if c.rg.outsider(k) != newest.coord {
					keys = append(keys, k)
				}
			}
			if len(keys) == 0 {
				keys = newest.keys
			}
			key := keys[c.rng.intn(len(keys))]
			code, err = c.get(c.rg.outsider(key), key, "", op)
		default:
			sw := &hist[c.rng.intn(len(hist))]
			key := sw.keys[c.rng.intn(len(sw.keys))]
			owners := c.rg.owners(key)
			inm := ""
			switch k {
			case opGetMatch:
				inm = runner.ETagFor(key)
			case opGetStale:
				inm = runner.ETagFor(strings.Repeat("0", 64))
			}
			code, err = c.get(owners[c.rng.intn(len(owners))], key, inm, op)
		}
		if err == nil && code >= 500 {
			err = fmt.Errorf("status %d", code)
		}
		c.ops = append(c.ops, opResult{kind: k, err: err})
	}
}

// loadPhase runs every client in whole rounds until the window closes.
func loadPhase(clients []*client, seconds int) {
	win := newWindow(seconds)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			op := int64(c.id) << 40
			for win.open() {
				c.round(&op)
			}
		}(c)
	}
	wg.Wait()
}

// servePhase runs the traced serve phase and adds its requests,
// checks and cluster.* metrics to rep.
func servePhase(o options, rep *report, chk *checker) error {
	dir := filepath.Join(o.workDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer func() { _ = os.RemoveAll(dir) }() // scratch caches; a leftover is harmless
	tr := newTracer()
	rg, err := startRig(dir, o.seed, tr)
	if err != nil {
		return err
	}
	defer rg.stop()

	hist := &history{}
	root := tr.begin("run", 0, 0, 0)
	clients := make([]*client, workers)
	for i, kinds := range [][]opKind{writerRound, readerRound} {
		clients[i] = &client{id: i, kinds: kinds, hist: hist, rng: splitmix{s: o.seed*1000003 + uint64(i)}, rg: rg, tr: tr, root: root}
	}
	loadPhase(clients, serveSeconds)
	tr.finish(root)

	for _, c := range clients {
		for _, r := range c.ops {
			rep.Attempted++
			if r.err != nil {
				rep.Failed++
				chk.errorf("serve client %d op %d: %v", c.id, r.kind, r.err)
			}
		}
	}
	checkReplicas(chk, rg, hist.snapshot())
	checkBodies(chk, rg, hist.snapshot(), o.seed)
	if err := clusterLayers(rep, rg); err != nil {
		return err
	}
	return finishTrace(tr, root, filepath.Join(o.workDir, "trace-serve.json"))
}

// checkReplicas requires every key a cold sweep submitted to be held by
// each member of its replica set, per the nodes' manifests. A node that
// served a peer-tier read keeps a promoted copy too, so more holders
// than the replica count are expected and only reported.
func checkReplicas(chk *checker, rg *rig, sweeps []sweepReq) {
	holders := map[string]int{}
	has := make([]map[string]bool, len(rg.nodes))
	for i, n := range rg.nodes {
		var doc struct {
			Keys []string `json:"keys"`
		}
		if err := getJSON(n.url+"/v1/cluster/manifest", &doc); err != nil {
			chk.errorf("manifest of node %d: %v", i, err)
			return
		}
		has[i] = map[string]bool{}
		for _, k := range doc.Keys {
			has[i][k] = true
			holders[k]++
		}
	}
	byURL := map[string]int{}
	for i, n := range rg.nodes {
		byURL[n.url] = i
	}
	var keys, extra int
	for _, s := range sweeps {
		for _, k := range s.keys {
			keys++
			owners := rg.owners(k)
			if len(owners) != serveReplicas {
				chk.errorf("key %.12s has %d owners, want %d", k, len(owners), serveReplicas)
			}
			for _, u := range owners {
				if !has[byURL[u]][k] {
					chk.errorf("key %.12s missing on replica %s", k, u)
				}
			}
			if holders[k] > serveReplicas {
				extra++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d submitted keys on their %d replicas; %d also promoted to a third node by reads\n",
		keys, serveReplicas, extra)
}

// checkBodies fetches a seeded subset of submitted results and compares
// each with a direct in-process simulation of the same job.
func checkBodies(chk *checker, rg *rig, sweeps []sweepReq, seed uint64) {
	var jobs []runner.Job
	var keys []string
	for _, s := range sweeps {
		jobs = append(jobs, s.jobs...)
		keys = append(keys, s.keys...)
	}
	rng := &splitmix{s: seed ^ 0x5eed}
	for _, i := range rng.pick(len(jobs), bodyChecks) {
		var doc struct {
			Results []core.Result `json:"results"`
		}
		url := rg.nodes[rng.intn(len(rg.nodes))].url + "/v1/results/" + keys[i]
		if err := getJSON(url, &doc); err != nil || len(doc.Results) != 1 {
			chk.errorf("GET %s: %v (%d results)", url, err, len(doc.Results))
			continue
		}
		j := jobs[i]
		w, _ := workloads.ByName(j.Workloads[0])
		want := core.NewSystem(j.Config).RunST(w.NewGen(), j.Insts, j.Warmup)
		if !sameJSON(doc.Results[0], want) {
			chk.errorf("result %.12s served by the cluster differs from a direct simulation", keys[i])
		}
	}
}

// clusterLayers reads the cluster's per-layer counters from every
// node's /metrics and /v1/cluster/status.
func clusterLayers(rep *report, rg *rig) error {
	sum := map[string]float64{}
	tiers := map[string]float64{}
	var replicaFills float64
	for _, n := range rg.nodes {
		m, err := scrape(n.url + "/metrics")
		if err != nil {
			return err
		}
		for k, v := range m {
			sum[k] += v
		}
		var st cluster.StatusDoc
		if err := getJSON(n.url+"/v1/cluster/status", &st); err != nil {
			return err
		}
		for _, t := range st.Tiers {
			tiers[t.Tier] += float64(t.Hits)
		}
		replicaFills += float64(st.ReplicaFills)
	}
	rep.set("cluster.peer_fetch_s", sum["catch_cluster_peer_fetch_seconds_sum"], "s")
	for _, t := range []string{"mem", "disk", "peer"} {
		rep.set("cluster.tier_hits."+t, tiers[t], "count")
	}
	rep.set("cluster.replica_fills", replicaFills, "count")
	rep.set("cluster.steals", sum["catch_cluster_steals_total"], "count")
	return nil
}

// scrape parses a Prometheus text exposition into series -> value.
func scrape(url string) (map[string]float64, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
