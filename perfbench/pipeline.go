package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gebe"
	"gebe/internal/ann"
	"gebe/internal/bigraph"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
	"gebe/internal/sparse"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// run is one execution of a workload: its settings, its accounting and
// what it found.
type run struct {
	wl      *workload
	seed    uint64
	seconds float64
	traced  bool
	dir     string
	nproc   int

	counts  tallies
	solves  tally
	fails   []string
	metrics []metric // end-to-end, or per-layer when traced
	layers  *layerState
}

func (r *run) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

func (r *run) report(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name, unit, value})
}

// repeatSetup times step at least three times and until the repetitions
// add up to 1.5 s, at most fifteen times, running prepare untimed before
// each, and returns the times. setup_s is built from their medians, so
// that a set-up of a tenth of a second is still timed steadily.
func repeatSetup(prepare func(), step func() error) ([]float64, error) {
	var times []float64
	total := 0.0
	for len(times) < 3 || (total < 1.5 && len(times) < 15) {
		prepare()
		t0 := time.Now()
		if err := step(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
	}
	return times, nil
}

// execute runs the whole pipeline: generate the inputs, train the edge
// list into an embedding file, check it, start serving from that file,
// drive the open- and closed-loop phases, and check the served answers.
func (r *run) execute() error {
	wl := r.wl
	edgePath := filepath.Join(r.dir, "train.tsv")
	embPath := filepath.Join(r.dir, "emb.tsv")

	var in *inputs
	var traffic []request
	genTimes, err := repeatSetup(runtime.GC, func() error {
		var err error
		if in, err = makeInputs(wl, r.seed, edgePath); err == nil {
			traffic = makeTraffic(wl, in, r.seed)
		}
		return err
	})
	if err != nil {
		return err
	}

	emb, err := r.train(in, edgePath, embPath)
	if err != nil {
		return err
	}
	ndcg := r.checkTraining(in, emb, embPath)
	refEmb := newRefEmbedding(emb)
	if r.traced {
		r.trainLayers()
	}
	// Drop what serving does not need, so the benchmark's own data adds
	// little to the garbage collector's work while the servers run.
	emb, in.train, in.heldOut, r.layers.graph = nil, nil, nil, nil

	// Start serving as repeatSetup says; the last start stays up. The
	// live-heap growth across that last start is what serving holds:
	// model, norms, ANN index, shards.
	var st *stack
	var live0 float64
	startTimes, err := repeatSetup(func() {
		if st != nil {
			st.close()
			st = nil // let the GC below free it before live0 is read
		}
		runtime.GC()
		live0 = liveHeapBytes()
	}, func() error {
		var err error
		st, err = startStack(wl, embPath, edgePath, r.seed, r.traced)
		return err
	})
	if err != nil {
		return err
	}
	defer st.close()
	runtime.GC()
	serveHeap := liveHeapBytes() - live0

	client := newClient(r.nproc)
	defer client.CloseIdleConnections()
	// The open and closed loops alternate in bursts, so that each metric
	// samples the whole serving phase rather than one stretch of it.
	var ld load
	per := time.Duration(r.seconds / 2 / bursts * float64(time.Second))
	for b := 0; b < bursts; b++ {
		ld.opens = append(ld.opens, openLoop(client, st.url, traffic, b*trafficLen/8,
			wl.rate, r.nproc, 500*time.Millisecond, per))
		ld.closeds = append(ld.closeds, closedLoop(client, st.url, traffic, trafficLen/2+b*trafficLen/8,
			r.nproc, 300*time.Millisecond, per))
	}
	for _, o := range ld.opens {
		for _, s := range o.samples {
			r.counts.add("open", traffic[s.req].endpoint, int(s.status), s.transport)
		}
	}
	for _, c := range ld.closeds {
		for _, s := range c.samples {
			r.counts.add("closed", traffic[s.req].endpoint, int(s.status), s.transport)
		}
	}
	recall, shortShare := r.checkServing(client, st, in, refEmb)

	p50, p99, subs := ld.latency()
	rps, slices := ld.rps()
	fmt.Printf("latency open-loop bursts=%d samples=%d subwindows=%d p50_ms=%.4f p99_ms=%.4f late_p99_ms=%.4f\n",
		bursts, len(ld.inWindow()), subs, p50, p99, ld.lateP99ms())
	fmt.Printf("throughput closed-loop bursts=%d conns=%d completed=%d rps=%.1f per_slice=%v\n",
		bursts, r.nproc, ld.completed(), rps, slices)

	if r.traced {
		fmt.Printf("traced_e2e train_s=%.6f rps=%.3f\n", r.layers.trainS, rps)
		r.report("lat_p50_ms", "ms", p50)
		r.report("lat_p99_ms", "ms", p99)
		r.report("ann.short_list_share", "ratio", shortShare)
		r.serveLayers(st, in, traffic, &ld)
		return nil
	}
	r.report("setup_s", "s", median(genTimes)+median(startTimes))
	r.report("train_s", "s", r.layers.trainS)
	r.report("train_alloc_mb", "MB", r.layers.trainAlloc/1e6)
	r.report("ndcg_at_10", "ratio", ndcg)
	r.report("rps", "1/s", rps)
	r.report("ann_recall_at_10", "ratio", recall)
	r.report("serve_heap_mb", "MB", serveHeap/1e6)
	return nil
}

// train runs edge-list file → embedding file: load, solve, save. With
// tracing on, the program's phase spans and engine counters record into
// the run's layer state.
func (r *run) train(in *inputs, edgePath, embPath string) (*gebe.Embedding, error) {
	ls := r.layers
	opt := gebe.Options{K: k, Threads: r.nproc, Seed: r.seed, Lambda: lambda, Epsilon: epsilon}
	if r.traced {
		ls.enable()
		opt.Trace, opt.Metrics = ls.trace, ls.reg
	}
	solve := gebe.GEBEP
	if r.wl.solver == "gebe" {
		opt.PMF, opt.Tau, opt.Iters = gebe.Poisson(lambda), tau, iters
		solve = gebe.GEBE
	}
	runtime.GC()
	a0 := heapAllocBytes()
	t0 := time.Now()
	g, err := gebe.LoadGraph(edgePath)
	t1 := time.Now()
	if err != nil {
		r.solves.add(0, true)
		return nil, err
	}
	a1 := heapAllocBytes()
	emb, err := solve(g, opt)
	t2 := time.Now()
	a2 := heapAllocBytes()
	if err != nil {
		r.solves.add(0, true)
		return nil, fmt.Errorf("solving: %w", err)
	}
	if err := gebe.SaveEmbedding(embPath, emb); err != nil {
		r.solves.add(0, true)
		return nil, err
	}
	t3 := time.Now()
	ls.trainS = t3.Sub(t0).Seconds()
	ls.trainAlloc = heapAllocBytes() - a0
	ls.loadS, ls.solveS, ls.saveS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	ls.solveAlloc = a2 - a1
	r.solves.add(200, false)
	fmt.Printf("train solver=%s nu=%d nv=%d edges=%d k=%d threads=%d train_s=%.4f sweeps=%d stop=%s\n",
		r.wl.solver, g.NU, g.NV, g.NumEdges(), k, r.nproc, ls.trainS, emb.Sweeps, emb.StopReason)
	if err := in.sameGraph(g); err != nil {
		r.fail("edge-list load: %v", err)
	}
	ls.graph = g
	return emb, nil
}

// checkTraining checks the trained embedding and the file it was saved
// to against the references and returns the NDCG@10 of the saved
// embedding.
func (r *run) checkTraining(in *inputs, emb *gebe.Embedding, embPath string) float64 {
	t0 := time.Now()
	loaded, err := gebe.LoadEmbedding(embPath)
	if err != nil {
		r.fail("reloading the embedding: %v", err)
	} else {
		if err := checkReload("U", emb.U, loaded.U); err != nil {
			r.fail("embedding file: %v", err)
		}
		if err := checkReload("V", emb.V, loaded.V); err != nil {
			r.fail("embedding file: %v", err)
		}
	}
	u := toRef(emb.U)
	if err := checkProduct(toRef(emb.V), wtMul(in.train, in.nv, 1/emb.SigmaScale, u)); err != nil {
		r.fail("V = Wᵀ·U: %v", err)
	}
	if err := checkOrthonormal(u, emb.Values); err != nil {
		r.fail("orthonormality: %v", err)
	}
	// Self-check: the same embedding with one column stretched by 0.1 %
	// must fail the orthonormality check.
	bent := &refMat{rows: u.rows, cols: u.cols, data: append([]float64(nil), u.data...)}
	for i := 0; i < bent.rows; i++ {
		bent.data[i*bent.cols] *= 1.001
	}
	if checkOrthonormal(bent, emb.Values) == nil {
		r.fail("self-check: the orthonormality check accepted a stretched column")
	}
	sv := topSingularValues(in.train, in.nu, in.nv, 1/emb.SigmaScale, k+1, k+16, 400, r.nproc, r.seed^0x7f4a7c15)
	if !sv.converged {
		r.fail("reference subspace iteration did not converge in %d products", sv.iterations)
	}
	if r.wl.solver == "gebep" {
		err = checkGEBEPSpectrum(emb.Values, lambda, epsilon, sv.sigma)
	} else {
		err = checkGEBESpectrum(emb.Values, lambda, tau, sv.sigma)
	}
	if err != nil {
		r.fail("spectrum: %v", err)
	}
	ndcg, users := r.ndcg(in, newRefEmbedding(emb))
	fmt.Printf("check training ref_products=%d sigma1_scaled=%.9f ndcg_users=%d check_s=%.2f\n",
		sv.iterations, sv.sigma[0], users, time.Since(t0).Seconds())
	if users == 0 {
		r.fail("no held-out users to score")
	}
	return ndcg
}

// ndcgUsers is the size of the fixed held-out user sample NDCG@10 is
// averaged over.
const ndcgUsers = 5000

// ndcg scores the saved embedding on a seeded sample of the users with
// held-out edges, with the benchmark's brute-force ranker.
func (r *run) ndcg(in *inputs, e *refEmbedding) (float64, int) {
	var users []int
	for u, h := range in.heldOut {
		if len(h) > 0 {
			users = append(users, u)
		}
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x6a09e667f3bcc909))
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	if len(users) > ndcgUsers {
		users = users[:ndcgUsers]
	}
	sums := make([]float64, r.nproc)
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(users); i += r.nproc {
				u := users[i]
				banned := func(v int) bool { return in.trained(u, v) }
				sums[w] += ndcgAt(recommend(u, e.u, e.v, banned, 10), in.heldOut[u], 10)
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for _, s := range sums {
		total += s
	}
	if len(users) == 0 {
		return 0, 0
	}
	return total / float64(len(users)), len(users)
}

// layerState carries the traced run's program sinks and the per-layer
// timings the pipeline measures around its calls into the program.
type layerState struct {
	reg   *obs.Registry
	trace *obs.Trace
	graph *bigraph.Graph

	trainS, trainAlloc   float64
	loadS, solveS, saveS float64
	solveAlloc           float64
}

// enable switches the program's own spans and engine counters on.
func (ls *layerState) enable() {
	ls.reg = obs.NewRegistry()
	ls.trace = obs.NewTrace("train")
	dense.EnableMetrics(ls.reg)
	sparse.EnableMetrics(ls.reg)
	eval.EnableMetrics(ls.reg)
	ann.EnableMetrics(ls.reg)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) || s[lo+1] == s[lo] || pos == float64(lo) {
		return s[lo] // also keeps +Inf (failed requests) from turning into NaN
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
