package main

// Reference computations the output checks are made against. None of
// them calls into the packages they check: they work on plain slices and
// on the edge list the benchmark generated, with textbook loops.

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
)

// refEdge is one weighted edge of the benchmark's own copy of the graph,
// in the densified ids the edge-list file implies.
type refEdge struct {
	u, v int
	w    float64
}

// refMat is a dense row-major matrix.
type refMat struct {
	rows, cols int
	data       []float64
}

func newRefMat(rows, cols int) *refMat {
	return &refMat{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

func (m *refMat) row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// wtMul returns (scale·W)ᵀ·x, |V|×cols, in one pass over the edge list.
func wtMul(edges []refEdge, nv int, scale float64, x *refMat) *refMat {
	out := newRefMat(nv, x.cols)
	for _, e := range edges {
		w := scale * e.w
		src, dst := x.row(e.u), out.row(e.v)
		for j := range dst {
			dst[j] += w * src[j]
		}
	}
	return out
}

// wMul returns (scale·W)·x, |U|×cols, in one pass over the edge list.
func wMul(edges []refEdge, nu int, scale float64, x *refMat) *refMat {
	out := newRefMat(nu, x.cols)
	for _, e := range edges {
		w := scale * e.w
		src, dst := x.row(e.v), out.row(e.u)
		for j := range dst {
			dst[j] += w * src[j]
		}
	}
	return out
}

// orthonormalize makes the columns of x orthonormal in place by modified
// Gram–Schmidt over a column-major copy. A column that vanishes against
// the earlier ones is left at zero.
func orthonormalize(x *refMat) {
	cols := make([][]float64, x.cols)
	for j := range cols {
		cols[j] = make([]float64, x.rows)
		for i := range cols[j] {
			cols[j][i] = x.data[i*x.cols+j]
		}
	}
	for j, c := range cols {
		for _, q := range cols[:j] {
			d := dot(q, c)
			for i := range c {
				c[i] -= d * q[i]
			}
		}
		n := math.Sqrt(dot(c, c))
		inv := 0.0
		if n > 0 {
			inv = 1 / n
		}
		for i := range c {
			c[i] *= inv
			x.data[i*x.cols+j] = c[i]
		}
	}
}

// gram returns aᵀ·b.
func gram(a, b *refMat) *refMat {
	out := newRefMat(a.cols, b.cols)
	for i := 0; i < a.rows; i++ {
		ar, br := a.row(i), b.row(i)
		for p, av := range ar {
			dst := out.row(p)
			for q, bv := range br {
				dst[q] += av * bv
			}
		}
	}
	return out
}

// symEigenvalues returns the eigenvalues of the symmetric matrix a in
// descending order, by cyclic Jacobi rotations. a is overwritten.
func symEigenvalues(a *refMat) []float64 {
	n := a.rows
	at := func(i, j int) float64 { return a.data[i*n+j] }
	for sweep := 0; sweep < 100; sweep++ {
		var off, diag float64
		for i := 0; i < n; i++ {
			diag += at(i, i) * at(i, i)
			for j := i + 1; j < n; j++ {
				off += at(i, j) * at(i, j)
			}
		}
		if off <= 1e-30*diag || off == 0 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := at(p, q)
				if apq == 0 {
					continue
				}
				theta := (at(q, q) - at(p, p)) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := at(k, p), at(k, q)
					a.data[k*n+p] = c*akp - s*akq
					a.data[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := at(p, k), at(q, k)
					a.data[p*n+k] = c*apk - s*aqk
					a.data[q*n+k] = s*apk + c*aqk
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = at(i, i)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return vals
}

// svResult is the outcome of the reference subspace iteration.
type svResult struct {
	sigma      []float64 // the r largest singular values, descending
	iterations int
	converged  bool
}

// topSingularValues returns the r largest singular values of scale·W by
// block subspace iteration on the smaller of (scale·W)ᵀ(scale·W) and
// (scale·W)(scale·W)ᵀ, with a block of the given width and Rayleigh–Ritz
// extraction. It stops once the top r Ritz values move by less than
// 1e-10 relative between checks, or after maxIters products. The edge
// list is split between workers goroutines.
func topSingularValues(edges []refEdge, nu, nv int, scale float64, r, block, maxIters, workers int, seed uint64) svResult {
	n := nv
	if nu < nv {
		// Iterate on the |U| side: the same products with W transposed.
		flipped := make([]refEdge, len(edges))
		for i, e := range edges {
			flipped[i] = refEdge{e.v, e.u, e.w}
		}
		edges, nu, nv, n = flipped, nv, nu, nu
	}
	block = min(block, n)
	r = min(r, block)
	rng := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
	x := newRefMat(n, block)
	for i := range x.data {
		x.data[i] = rng.NormFloat64()
	}
	orthonormalize(x)
	var prev []float64
	res := svResult{}
	for it := 1; it <= maxIters; it++ {
		z := parallelProduct(edges, nv, scale, parallelProduct(edges, nu, scale, x, workers, true), workers, false)
		res.iterations = it
		if it%5 == 0 || it == maxIters {
			// Rayleigh–Ritz on the current basis: xᵀ·(WᵀW·x).
			vals := symEigenvalues(gram(x, z))[:r]
			if prev != nil {
				moved := 0.0
				for i := range vals {
					moved = math.Max(moved, math.Abs(vals[i]-prev[i])/math.Max(vals[i], 1e-300))
				}
				if moved < 1e-10 {
					res.converged = true
					prev = vals
					break
				}
			}
			prev = vals
		}
		x = z
		orthonormalize(x)
	}
	res.sigma = make([]float64, r)
	for i, v := range prev {
		res.sigma[i] = math.Sqrt(math.Max(v, 0))
	}
	return res
}

// parallelProduct is wMul (toU) or wtMul over workers slices of the edge
// list, each into its own output, summed at the end.
func parallelProduct(edges []refEdge, rows int, scale float64, x *refMat, workers int, toU bool) *refMat {
	mul := wtMul
	if toU {
		mul = wMul
	}
	workers = max(1, min(workers, len(edges)))
	parts := make([]*refMat, workers)
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := len(edges)*w/workers, len(edges)*(w+1)/workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = mul(edges[lo:hi], rows, scale, x)
		}(w)
	}
	wg.Wait()
	out := parts[0]
	for _, p := range parts[1:] {
		for i, v := range p.data {
			out.data[i] += v
		}
	}
	return out
}

// poissonMap returns Σ_{ℓ=0}^{τ} e^{-λ}·λ^ℓ/ℓ!·x^ℓ, the eigenvalue of the
// truncated Poisson H that belongs to a squared singular value x of W.
func poissonMap(x, lambda float64, tau int) float64 {
	term := math.Exp(-lambda) // ω(0)·x⁰
	sum := term
	for l := 1; l <= tau; l++ {
		term *= lambda * x / float64(l)
		sum += term
	}
	return sum
}

// ranked is one scored id of a reference ranking.
type ranked struct {
	id    int
	score float64
}

// topN ranks scores in descending order with ties toward the smaller id,
// skipping the ids in skip, and keeps the first n: the order the serving
// layer documents for every list it returns. It keeps the best n seen so
// far in a sorted slice and inserts each better candidate in place.
func topN(scores []float64, n int, skip func(id int) bool) []ranked {
	if n <= 0 {
		return nil
	}
	best := make([]ranked, 0, n+1)
	for id, s := range scores {
		c := ranked{id, s}
		if len(best) == n && !ranksBefore(c, best[n-1]) {
			continue
		}
		if skip != nil && skip(id) {
			continue
		}
		pos := len(best)
		for pos > 0 && ranksBefore(c, best[pos-1]) {
			pos--
		}
		best = append(best, ranked{})
		copy(best[pos+1:], best[pos:])
		best[pos] = c
		if len(best) > n {
			best = best[:n]
		}
	}
	return best
}

// ranksBefore is the documented ranking order: higher score first, ties
// toward the smaller id.
func ranksBefore(a, b ranked) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// scoreRow returns q·items[j] for every item row j.
func scoreRow(q []float64, items *refMat) []float64 {
	out := make([]float64, items.rows)
	for j := range out {
		out[j] = dot(q, items.row(j))
	}
	return out
}

// recommend is the brute-force top-n list of user u with the items
// banned masked.
func recommend(u int, users, items *refMat, banned func(id int) bool, n int) []ranked {
	return topN(scoreRow(users.row(u), items), n, banned)
}

// similar is the brute-force cosine top-n of row id against its own side,
// the row itself excluded; a zero-norm row has cosine 0 with everything.
func similar(id int, side *refMat, n int) []ranked {
	norms := make([]float64, side.rows)
	for i := range norms {
		norms[i] = math.Sqrt(dot(side.row(i), side.row(i)))
	}
	scores := scoreRow(side.row(id), side)
	for j := range scores {
		if d := norms[id] * norms[j]; d > 0 {
			scores[j] /= d
		} else {
			scores[j] = 0
		}
	}
	return topN(scores, n, func(j int) bool { return j == id })
}

// ndcgAt is binary-relevance NDCG@n of the list rec against the user's
// held-out items, whose n heaviest (ties toward the smaller id) form the
// ground truth.
func ndcgAt(rec []ranked, heldOut []refEdge, n int) float64 {
	if len(heldOut) == 0 {
		return 0
	}
	truth := append([]refEdge(nil), heldOut...)
	sort.Slice(truth, func(a, b int) bool {
		if truth[a].w != truth[b].w {
			return truth[a].w > truth[b].w
		}
		return truth[a].v < truth[b].v
	})
	if len(truth) > n {
		truth = truth[:n]
	}
	relevant := make(map[int]bool, len(truth))
	for _, e := range truth {
		relevant[e.v] = true
	}
	var dcg, idcg float64
	for i, r := range rec {
		if i >= n {
			break
		}
		if relevant[r.id] {
			dcg += 1 / math.Log2(float64(i)+2)
		}
	}
	for i := 0; i < len(truth); i++ {
		idcg += 1 / math.Log2(float64(i)+2)
	}
	return dcg / idcg
}
