package main

import "gebe/internal/gen"

// workload is one set of inputs the benchmark runs end to end: an edge
// list trained into an embedding file, then served.
type workload struct {
	name string
	// graph is the latent-factor shape to draw (Seed comes from the run);
	// dataset, when set, names a stand-in dataset instead.
	graph   gen.LFConfig
	dataset string
	// solver is "gebep" (Algorithm 2) or "gebe" (Algorithm 1, Poisson).
	solver string

	// coord serves through a shard.Coordinator over two item shards
	// instead of one server.
	coord bool
	// cache is the recommend LRU size in entries; 0 turns it off.
	cache int
	// rate is the open-loop offered rate in requests per second. It is a
	// constant, set near half of the rate the open loop keeps up with as
	// measured when the benchmark was written (see README.md), and never
	// calibrated at run time.
	rate float64
	// byDegree draws the users requests are made for in proportion to
	// their number of training edges, so the users with the most history
	// are asked for most; otherwise users are drawn uniformly.
	byDegree bool
	// batch is the number of users per recommend request.
	batch int
	// mixed adds approx recommends, /v1/similar and /v1/score batches to
	// the exact recommends.
	mixed bool
}

// Solver parameters every workload trains with. They are passed to the
// solvers explicitly, not left to the program's defaults, and the
// spectrum checks use the same values.
const (
	k       = 32  // embedding width
	lambda  = 1.0 // Poisson rate: GEBE^p's λ and GEBE's Poisson PMF
	epsilon = 0.1 // GEBE^p's randomized-SVD error threshold ε
	tau     = 20  // GEBE's PMF truncation τ
	iters   = 200 // GEBE's KSI sweep budget t
)

// servingGraph is the shape both serving workloads train:
// about 20k items, the item side the serving paths scan.
var servingGraph = gen.LFConfig{NU: 8000, NV: 20000, NE: 200000, Clusters: 40,
	Skew: 0.8, CrossRate: 0.2, Weighted: true, MinDegree: 2}

var workloads = []*workload{
	{
		name: "train-gebep",
		graph: gen.LFConfig{NU: 40000, NV: 10000, NE: 400000, Clusters: 40,
			Skew: 0.8, CrossRate: 0.2, Weighted: true, MinDegree: 2},
		solver: "gebep",
		rate:   1500,
		batch:  1,
	},
	{
		name:    "train-gebe",
		dataset: "movielens",
		solver:  "gebe",
		rate:    3500,
		batch:   1,
	},
	{
		name:     "serve-zipf",
		graph:    servingGraph,
		solver:   "gebep",
		cache:    2048,
		rate:     1000,
		byDegree: true,
		batch:    1,
		mixed:    true,
	},
	{
		name:   "coord-uniform",
		graph:  servingGraph,
		solver: "gebep",
		coord:  true,
		rate:   75,
		batch:  16,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}
