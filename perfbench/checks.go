package main

import (
	"fmt"
	"math"
	"strconv"

	"gebe"
	"gebe/internal/dense"
)

// Output checks. Each compares one program output with a reference from
// ref.go and returns an error naming the first disagreement.

// toRef copies a program matrix into a reference matrix.
func toRef(m *dense.Matrix) *refMat {
	out := newRefMat(m.Rows, m.Cols)
	copy(out.data, m.Data)
	return out
}

// round10 is x as the embedding file stores it: ten significant digits.
func round10(x float64) float64 {
	y, err := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 10, 64), 64)
	if err != nil {
		panic(err) // FormatFloat output always parses
	}
	return y
}

// checkReload compares a reloaded matrix with the in-memory one rounded
// to the stored precision, bit for bit.
func checkReload(side string, mem, loaded *dense.Matrix) error {
	if mem.Rows != loaded.Rows || mem.Cols != loaded.Cols {
		return fmt.Errorf("reloaded %s is %dx%d, saved %dx%d", side, loaded.Rows, loaded.Cols, mem.Rows, mem.Cols)
	}
	for i, x := range mem.Data {
		if want := round10(x); math.Float64bits(loaded.Data[i]) != math.Float64bits(want) {
			return fmt.Errorf("reloaded %s[%d][%d] = %v, saved %v", side, i/mem.Cols, i%mem.Cols, loaded.Data[i], want)
		}
	}
	return nil
}

// checkProduct compares the program's V with the reference Wᵀ·U, entry
// by entry, relative to the largest entry.
func checkProduct(v, want *refMat) error {
	if v.rows != want.rows || v.cols != want.cols {
		return fmt.Errorf("V is %dx%d, Wᵀ·U is %dx%d", v.rows, v.cols, want.rows, want.cols)
	}
	scale := 0.0
	for _, x := range want.data {
		scale = math.Max(scale, math.Abs(x))
	}
	for i, x := range want.data {
		if math.Abs(v.data[i]-x) > 1e-9*scale {
			return fmt.Errorf("V[%d][%d] = %v, Wᵀ·U gives %v", i/v.cols, i%v.cols, v.data[i], x)
		}
	}
	return nil
}

// checkOrthonormal checks that Z = U·Λ^{-1/2} has orthonormal columns:
// U = Z·√Λ is how both solvers realize the embedding.
func checkOrthonormal(u *refMat, vals []float64) error {
	if len(vals) != u.cols {
		return fmt.Errorf("%d eigenvalues for %d columns", len(vals), u.cols)
	}
	z := newRefMat(u.rows, u.cols)
	for i := 0; i < u.rows; i++ {
		for j, x := range u.row(i) {
			if vals[j] <= 0 {
				return fmt.Errorf("eigenvalue %d is %v, not positive", j, vals[j])
			}
			z.data[i*z.cols+j] = x / math.Sqrt(vals[j])
		}
	}
	g := gram(z, z)
	for i := 0; i < g.rows; i++ {
		for j := 0; j < g.cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(g.data[i*g.cols+j] - want); d > 1e-8 {
				return fmt.Errorf("ZᵀZ[%d][%d] = %v, want %v", i, j, g.data[i*g.cols+j], want)
			}
		}
	}
	return nil
}

// checkGEBEPSpectrum checks the singular values GEBE^p's eigenvalues
// imply, σ̃² = 1 + ln(λ_i)/λ, against the reference σ_1..σ_{k+1} of the
// scaled W: a Ritz value cannot exceed the true value, and the
// Musco–Musco per-value guarantee behind Theorem 5.1 bounds it from
// below by σ_i² − ε·σ_{k+1}².
func checkGEBEPSpectrum(vals []float64, lambda, eps float64, sigma []float64) error {
	if len(sigma) < len(vals)+1 {
		return fmt.Errorf("need %d reference singular values, have %d", len(vals)+1, len(sigma))
	}
	next := sigma[len(vals)] * sigma[len(vals)]
	for i, l := range vals {
		s2 := 1 + math.Log(l)/lambda
		t2 := sigma[i] * sigma[i]
		if s2 > t2*(1+1e-6)+1e-12 {
			return fmt.Errorf("σ̃²_%d = %v exceeds the reference σ²_%d = %v", i+1, s2, i+1, t2)
		}
		if s2 < t2-eps*next-1e-12 {
			return fmt.Errorf("σ̃²_%d = %v is below σ²_%d − ε·σ²_%d = %v", i+1, s2, i+1, len(vals)+1, t2-eps*next)
		}
	}
	return nil
}

// checkGEBESpectrum checks GEBE's Ritz values: non-negative, descending,
// and no larger than the eigenvalues of the truncated Poisson H, which
// are the Poisson map of the reference σ_i².
func checkGEBESpectrum(vals []float64, lambda float64, tau int, sigma []float64) error {
	if len(sigma) < len(vals) {
		return fmt.Errorf("need %d reference singular values, have %d", len(vals), len(sigma))
	}
	for i, v := range vals {
		if v < 0 {
			return fmt.Errorf("Ritz value %d is negative: %v", i+1, v)
		}
		if i > 0 && v > vals[i-1]*(1+1e-12) {
			return fmt.Errorf("Ritz values not descending at %d: %v > %v", i+1, v, vals[i-1])
		}
		if h := poissonMap(sigma[i]*sigma[i], lambda, tau); v > h*(1+1e-6) {
			return fmt.Errorf("Ritz value %d = %v exceeds the Poisson map of σ²_%d, %v", i+1, v, i+1, h)
		}
	}
	return nil
}

// scoreTol is the tolerance a served score has against the reference
// dot product of rows a and b: the two sum the same products in
// different orders.
func scoreTol(a, b []float64) float64 {
	return 1e-9 * (math.Sqrt(dot(a, a)*dot(b, b)) + 1e-300)
}

// checkList compares a served ranked list with the reference ranking.
// Every served score must equal its reference score, and every rank must
// hold the reference item, except where the two items' scores tie within
// the tolerance. banned marks ids the list must not contain.
func checkList(got, want []ranked, score func(id int) (float64, float64), banned func(id int) bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("list has %d items, reference %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i, g := range got {
		if seen[g.id] {
			return fmt.Errorf("item %d listed twice", g.id)
		}
		seen[g.id] = true
		if banned != nil && banned(g.id) {
			return fmt.Errorf("item %d at rank %d is excluded", g.id, i+1)
		}
		exact, tol := score(g.id)
		if math.Abs(g.score-exact) > tol {
			return fmt.Errorf("item %d at rank %d has score %v, reference %v", g.id, i+1, g.score, exact)
		}
		if g.id != want[i].id && math.Abs(exact-want[i].score) > tol {
			return fmt.Errorf("rank %d holds item %d (score %v), reference item %d (score %v)",
				i+1, g.id, exact, want[i].id, want[i].score)
		}
	}
	return nil
}

// checkScores compares served pair scores with reference dot products.
func checkScores(got []float64, pairs [][2]int, emb *refEmbedding) error {
	if len(got) != len(pairs) {
		return fmt.Errorf("%d scores for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		a, b := emb.u.row(p[0]), emb.v.row(p[1])
		if want := dot(a, b); math.Abs(got[i]-want) > scoreTol(a, b) {
			return fmt.Errorf("score of (%d,%d) is %v, reference %v", p[0], p[1], got[i], want)
		}
	}
	return nil
}

// refEmbedding is the served embedding as the benchmark knows it: the
// trained matrices rounded to the stored precision by the benchmark.
type refEmbedding struct {
	u, v *refMat
}

func newRefEmbedding(e *gebe.Embedding) *refEmbedding {
	r := &refEmbedding{u: toRef(e.U), v: toRef(e.V)}
	for _, m := range []*refMat{r.u, r.v} {
		for i, x := range m.data {
			m.data[i] = round10(x)
		}
	}
	return r
}
