package main

// Per-layer figures of a traced run. They come from three places: the
// program's own phase spans and registry counters (switched on by
// layerState.enable), the serving layers' latency snapshots, and calls
// the benchmark times around exported functions of one module at a time.

import (
	"context"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"gebe/internal/ann"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
	"gebe/internal/serve"
	"gebe/internal/sparse"
)

// spansNamed collects every span with the given name under s.
func spansNamed(s *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if s.Name == name {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(s)
	return out
}

// spanTotals returns the summed seconds, summed allocated bytes and count
// of the spans with the given name.
func spanTotals(root *obs.Span, name string) (seconds, allocBytes, count float64) {
	for _, s := range spansNamed(root, name) {
		seconds += s.Duration.Seconds()
		allocBytes += float64(s.Allocs)
		count++
	}
	return seconds, allocBytes, count
}

func counterValue(reg *obs.Registry, name string) float64 {
	v, _ := reg.Snapshot()[name].(float64)
	return v
}

// trainLayers reports the training layers of a traced run: the timed
// calls into bigraph, core and the root package, the solver's phase
// spans and engine counters, and two probes timed apart from the solve.
func (r *run) trainLayers() {
	ls := r.layers
	root := ls.trace.Root()
	r.report("bigraph.load_s", "s", ls.loadS)
	r.report("core.solve_s", "s", ls.solveS)
	r.report("core.solve_alloc_mb", "MB", ls.solveAlloc/1e6)
	r.report("gebe.save_s", "s", ls.saveS)
	sigma1, _, _ := spanTotals(root, "sigma1")
	r.report("linalg.sigma1_s", "s", sigma1)
	embed, _, _ := spanTotals(root, "embed")
	r.report("core.embed_s", "s", embed)
	blockS, _, blocks := spanTotals(root, "rsvd.block")
	r.report("linalg.rsvd_block_s", "s", blockS)
	r.report("linalg.rsvd_blocks", "count", blocks)
	for _, ph := range []string{"global_qr", "project", "eig"} {
		s, _, _ := spanTotals(root, "rsvd."+ph)
		r.report("linalg.rsvd_"+ph+"_s", "s", s)
	}
	sweepS, sweepAlloc, sweeps := spanTotals(root, "ksi.sweep")
	r.report("linalg.ksi_sweep_s", "s", sweepS)
	r.report("linalg.ksi_sweeps", "count", sweeps)
	r.report("linalg.ksi_sweep_alloc_mb", "MB", sweepAlloc/1e6)
	rr, _, _ := spanTotals(root, "ksi.rayleigh_ritz")
	r.report("linalg.ksi_rayleigh_ritz_s", "s", rr)
	r.report("dense.gemm_fma", "count", counterValue(ls.reg, "dense_gemm_fma_total"))
	r.report("sparse.spmm_fma", "count", counterValue(ls.reg, "sparse_spmm_fma_total"))

	// The solve's largest QR: GEBE^p's global QR of the |U|×(q+1)b Krylov
	// basis, or GEBE's per-sweep |U|×k block.
	g := ls.graph
	cols, width := k, k
	if r.wl.solver == "gebep" {
		width = k + 8 // the randomized SVD's block: k plus oversampling
		for _, s := range spansNamed(root, "rsvd") {
			if d, ok := s.Attrs["krylov_dim"].(int); ok {
				cols = d
			}
		}
	}
	rng := rand.New(rand.NewPCG(r.seed, 3))
	a := dense.Random(g.NU, cols, rng)
	var ws dense.QRWork
	t0 := time.Now()
	ws.Orthonormalize(a, dense.Tuning{Threads: r.nproc})
	r.report("dense.qr_probe_s", "s", time.Since(t0).Seconds())

	// One W·(Wᵀ·X) at the solve's block width, median of five.
	w := core.WeightMatrix(g)
	x := dense.Random(g.NU, width, rng)
	tn := sparse.Tuning{Threads: r.nproc}
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		w.MulDenseOpts(w.TMulDenseOpts(x, tn), tn)
		times[i] = time.Since(t0).Seconds()
	}
	r.report("sparse.gram_probe_s", "s", median(times))
}

// accessLog is a log handler that keeps the handler time of every
// recommend the serving layers write to their access log. The access
// log's times are exact; the latency snapshots' quantiles interpolate
// inside histogram buckets up to 2.5 ms wide at these latencies.
type accessLog struct {
	mu sync.Mutex
	at []int64   // sample clock at logging
	ms []float64 // handler time
}

func (a *accessLog) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }

func (a *accessLog) Handle(_ context.Context, rec slog.Record) error {
	var endpoint string
	var elapsed time.Duration
	rec.Attrs(func(at slog.Attr) bool {
		switch at.Key {
		case "endpoint":
			endpoint = at.Value.String()
		case "elapsed":
			if at.Value.Kind() == slog.KindDuration {
				elapsed = at.Value.Duration()
			}
		}
		return true
	})
	if endpoint == "recommend" && elapsed > 0 {
		a.mu.Lock()
		a.at = append(a.at, int64(rec.Time.Sub(epoch)))
		a.ms = append(a.ms, float64(elapsed)/1e6)
		a.mu.Unlock()
	}
	return nil
}

func (a *accessLog) WithAttrs([]slog.Attr) slog.Handler { return a }
func (a *accessLog) WithGroup(string) slog.Handler      { return a }

// recommendMS returns the handler times logged between from and to
// (sample clock).
func (a *accessLog) recommendMS(from, to int64) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []float64
	for i, t := range a.at {
		if t >= from && t < to {
			out = append(out, a.ms[i])
		}
	}
	return out
}

// serveLayers reports the serving layers of a traced run.
func (r *run) serveLayers(st *stack, in *inputs, traffic []request, ld *load) {
	ls := r.layers
	// Handler times of the recommends finished inside the open-loop
	// window, from the access logs: the scoring servers (the single
	// server, or both shards pooled) and the coordinator.
	var shardMS, coordMS []float64
	for _, o := range ld.opens {
		shardMS = append(shardMS, st.serveLog.recommendMS(o.start, o.end)...)
		coordMS = append(coordMS, st.coordLog.recommendMS(o.start, o.end)...)
	}
	p50 := median(shardMS)
	r.report("serve.handler_p50_ms", "ms", p50)
	r.report("serve.handler_p99_ms", "ms", quantile(shardMS, 0.99))
	var hits, lookups float64
	servers := st.shards
	if st.server != nil {
		servers = []*serve.Server{st.server}
	}
	for _, s := range servers {
		snap := s.LatencySnapshot()
		hits += snap.Counters["cache_hit"]
		lookups += snap.Counters["cache_hit"] + snap.Counters["cache_miss"]
	}

	front := p50 // handler time of whatever the client talks to
	var coordP50, fanout, callsPerReq, hedges, retries float64
	if st.coord != nil {
		coordP50 = median(coordMS)
		fanout = coordP50 - p50
		front = coordP50
		snap := st.coord.LatencySnapshot()
		var reqs float64
		for _, ep := range []string{"recommend", "similar", "score"} {
			reqs += float64(snap.Endpoints[ep].Count)
		}
		if reqs > 0 {
			callsPerReq = snap.Counters["scatter_calls"] / reqs
		}
		hedges, retries = snap.Counters["shard_hedge"], snap.Counters["shard_retry"]
	}
	var service []float64
	for _, s := range ld.inWindow() {
		if strings.HasPrefix(traffic[s.req].endpoint, "recommend") && !s.failed() {
			service = append(service, float64(s.done-s.sent)/1e6)
		}
	}
	r.report("http.overhead_p50_ms", "ms", median(service)-front)
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	r.report("serve.cache_hit_ratio", "ratio", ratio)
	r.report("serve.cache_hit_direct_us", "us", r.cacheHitDirect(st))

	// The item matrix one scoring server holds, and its users.
	items := st.emb.V
	if len(st.slices) > 0 {
		items = st.slices[0].V
	}
	users := st.emb.U
	rng := rand.New(rand.NewPCG(r.seed, 5))
	sc := eval.NewScorer(users, items)
	tile := make([]int, eval.TileUsers)
	tiles := make([]float64, 30)
	var row []float64
	for i := range tiles {
		for j := range tile {
			tile[j] = rng.IntN(users.Rows)
		}
		t0 := time.Now()
		_ = sc.Score(tile, nil, func(_ int, scores []float64) { row = scores })
		tiles[i] = time.Since(t0).Seconds() * 1e3
	}
	r.report("eval.score_tile_ms", "ms", median(tiles))
	row = append([]float64(nil), row...)
	ranks := make([]float64, 200)
	for i := range ranks {
		mask := in.mask(rng.IntN(in.nu))
		t0 := time.Now()
		eval.TopNIndices(row, 10, mask)
		ranks[i] = time.Since(t0).Seconds() * 1e6
	}
	r.report("eval.rank_us", "us", median(ranks))

	// Candidates per query as the servers' searches counted them, then a
	// search latency probe on an index built the way the server builds its.
	queries := counterValue(ls.reg, "ann_queries_total")
	cand := 0.0
	if queries > 0 {
		cand = counterValue(ls.reg, "ann_candidates_scored_total") / queries
	}
	searchUS := 0.0
	if ix, err := ann.Build(items, st.annCfg); err != nil {
		r.fail("building the probe index: %v", err)
	} else {
		searches := make([]float64, 200)
		for i := range searches {
			u := rng.IntN(users.Rows)
			mask := in.mask(u)
			t0 := time.Now()
			ix.Search(users.Row(u), 10, ann.Options{Skip: mask})
			searches[i] = time.Since(t0).Seconds() * 1e6
		}
		searchUS = median(searches)
	}
	r.report("ann.search_us", "us", searchUS)
	r.report("ann.candidates_per_query", "count", cand)

	r.report("shard.coord_handler_p50_ms", "ms", coordP50)
	r.report("shard.fanout_overhead_p50_ms", "ms", fanout)
	r.report("shard.calls_per_request", "count", callsPerReq)
	r.report("shard.hedges", "count", hedges)
	r.report("shard.retries", "count", retries)

	perReq := 0.0
	gcPer1k := 0.0
	var allocBytes, gcCycles float64
	for _, c := range ld.closeds {
		allocBytes += c.allocBytes
		gcCycles += c.gcCycles
	}
	if n := float64(ld.completed()); n > 0 {
		perReq = allocBytes / n / 1e3
		gcPer1k = gcCycles * 1000 / n
	}
	r.report("runtime.alloc_kb_per_req", "KB", perReq)
	r.report("runtime.gc_per_1k_req", "count", gcPer1k)
	r.report("loadgen.late_p99_ms", "ms", ld.lateP99ms())
}

// cacheHitDirect times the single server's handler on a request it has
// already answered, with no network in between: the cost of a cache hit.
// It is 0 where no cache is configured.
func (r *run) cacheHitDirect(st *stack) float64 {
	if st.server == nil || r.wl.cache == 0 {
		return 0
	}
	h := st.server.Handler()
	body := `{"user":0,"n":10}`
	do := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(body)))
		return rec.Code
	}
	if code := do(); code != http.StatusOK {
		r.fail("direct recommend: status %d", code)
		return 0
	}
	times := make([]float64, 500)
	for i := range times {
		t0 := time.Now()
		do()
		times[i] = time.Since(t0).Seconds() * 1e6
	}
	return median(times)
}
