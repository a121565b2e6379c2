package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"

	"gebe/internal/bigraph"
	"gebe/internal/gen"
)

// inputs is the benchmark's own copy of what the generated edge-list
// file (one "u<id> v<id> w" line per edge) means, which every check is
// made against.
type inputs struct {
	nu, nv int       // node counts the training edge-list file implies
	train  []refEdge // training edges in file order, densified ids
	// heldOut[u] are user u's test edges whose endpoints both occur in
	// the training file (the others cannot be scored).
	heldOut [][]refEdge
	// trainPtr/trainItem list each user's training items, sorted: user
	// u's are trainItem[trainPtr[u]:trainPtr[u+1]]. They are the serving
	// mask, kept free of pointers so that the benchmark's own data adds
	// little to the garbage collector's work in the serving process.
	trainPtr, trainItem []int
}

// trained reports whether (u, v) is a training edge.
func (in *inputs) trained(u, v int) bool {
	items := in.trainItem[in.trainPtr[u]:in.trainPtr[u+1]]
	i := sort.SearchInts(items, v)
	return i < len(items) && items[i] == v
}

// mask returns user u's training items as a set, the form the program's
// ranking and retrieval functions take.
func (in *inputs) mask(u int) map[int]bool {
	m := make(map[int]bool)
	for _, v := range in.trainItem[in.trainPtr[u]:in.trainPtr[u+1]] {
		m[v] = true
	}
	return m
}

// makeInputs generates the workload's graph from the seed, splits its
// edges 80/20 at random, and writes the training part to path in a
// seeded random order. Node ids are densified the way an edge-list
// reader sees them: in order of first appearance in the file.
func makeInputs(wl *workload, seed uint64, path string) (*inputs, error) {
	g, err := buildGraph(wl, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x1f83d9abfb41bd6b))
	perm := rng.Perm(len(g.Edges))
	nTrain := len(perm) * 4 / 5
	in := &inputs{}
	uID := make(map[int]int)
	vID := make(map[int]int)
	intern := func(ids map[int]int, raw int, n *int) int {
		id, ok := ids[raw]
		if !ok {
			id = *n
			ids[raw] = id
			*n++
		}
		return id
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("writing edge list: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	line := make([]byte, 0, 64)
	in.train = make([]refEdge, 0, nTrain)
	for _, p := range perm[:nTrain] {
		e := g.Edges[p]
		line = append(line[:0], 'u')
		line = strconv.AppendInt(line, int64(e.U), 10)
		line = append(line, "\tv"...)
		line = strconv.AppendInt(line, int64(e.V), 10)
		line = append(line, '\t')
		line = strconv.AppendFloat(line, e.W, 'g', -1, 64)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			f.Close()
			return nil, fmt.Errorf("writing edge list: %w", err)
		}
		in.train = append(in.train, refEdge{intern(uID, e.U, &in.nu), intern(vID, e.V, &in.nv), e.W})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing edge list: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("writing edge list: %w", err)
	}
	in.heldOut = make([][]refEdge, in.nu)
	for _, p := range perm[nTrain:] {
		e := g.Edges[p]
		u, okU := uID[e.U]
		v, okV := vID[e.V]
		if okU && okV {
			in.heldOut[u] = append(in.heldOut[u], refEdge{u, v, e.W})
		}
	}
	in.trainPtr = make([]int, in.nu+1)
	for _, e := range in.train {
		in.trainPtr[e.u+1]++
	}
	for u := 0; u < in.nu; u++ {
		in.trainPtr[u+1] += in.trainPtr[u]
	}
	in.trainItem = make([]int, len(in.train))
	fill := append([]int(nil), in.trainPtr[:in.nu]...)
	for _, e := range in.train {
		in.trainItem[fill[e.u]] = e.v
		fill[e.u]++
	}
	for u := 0; u < in.nu; u++ {
		sort.Ints(in.trainItem[in.trainPtr[u]:in.trainPtr[u+1]])
	}
	return in, nil
}

// buildGraph draws the workload's graph: a latent-factor graph of the
// workload's shape, or a named stand-in dataset.
func buildGraph(wl *workload, seed uint64) (*bigraph.Graph, error) {
	if wl.dataset != "" {
		d, err := gen.ByName(wl.dataset)
		if err != nil {
			return nil, err
		}
		return d.Build(seed)
	}
	cfg := wl.graph
	cfg.Seed = seed
	return gen.LatentFactor(cfg)
}

// sameGraph reports how the graph a reader loaded differs from the
// benchmark's own reading of the file, or nil when it matches edge for
// edge.
func (in *inputs) sameGraph(g *bigraph.Graph) error {
	if g.NU != in.nu || g.NV != in.nv || len(g.Edges) != len(in.train) {
		return fmt.Errorf("loaded graph is %dx%d with %d edges, file holds %dx%d with %d",
			g.NU, g.NV, len(g.Edges), in.nu, in.nv, len(in.train))
	}
	for i, e := range g.Edges {
		r := in.train[i]
		if e.U != r.u || e.V != r.v || e.W != r.w {
			return fmt.Errorf("loaded edge %d is (%d,%d,%g), file says (%d,%d,%g)", i, e.U, e.V, e.W, r.u, r.v, r.w)
		}
	}
	return nil
}
