package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"gebe/internal/dense"
)

// W is the 2×3 matrix
//
//	[1 2 0]
//	[0 3 4]
var smallW = []refEdge{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}, {1, 2, 4}}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestProducts(t *testing.T) {
	u := &refMat{rows: 2, cols: 1, data: []float64{1, 2}}
	// (0.5·W)ᵀ·[1 2]ᵀ = 0.5·[1, 2+6, 8] = [0.5, 4, 4].
	got := wtMul(smallW, 3, 0.5, u)
	for i, want := range []float64{0.5, 4, 4} {
		if got.data[i] != want {
			t.Errorf("wtMul[%d] = %v, want %v", i, got.data[i], want)
		}
	}
	// W·[1 1 1]ᵀ = [3, 7].
	x := &refMat{rows: 3, cols: 1, data: []float64{1, 1, 1}}
	got = wMul(smallW, 2, 1, x)
	if got.data[0] != 3 || got.data[1] != 7 {
		t.Errorf("wMul = %v, want [3 7]", got.data)
	}
	if p := parallelProduct(smallW, 3, 0.5, u, 3, false); p.data[1] != 4 {
		t.Errorf("parallel wtMul[1] = %v, want 4", p.data[1])
	}
}

func TestSymEigenvalues(t *testing.T) {
	// [[2 1][1 2]] has eigenvalues 3 and 1.
	vals := symEigenvalues(&refMat{rows: 2, cols: 2, data: []float64{2, 1, 1, 2}})
	if !near(vals[0], 3, 1e-12) || !near(vals[1], 1, 1e-12) {
		t.Errorf("eigenvalues %v, want [3 1]", vals)
	}
}

func TestTopSingularValues(t *testing.T) {
	// WWᵀ = [[5 6][6 25]]: eigenvalues 15 ± √136, so σ² = 15 ± √136.
	sv := topSingularValues(smallW, 2, 3, 1, 2, 2, 200, 2, 1)
	want := []float64{math.Sqrt(15 + math.Sqrt(136)), math.Sqrt(15 - math.Sqrt(136))}
	for i := range want {
		if !near(sv.sigma[i], want[i], 1e-9) {
			t.Errorf("σ_%d = %v, want %v", i+1, sv.sigma[i], want[i])
		}
	}
	if !sv.converged {
		t.Error("did not converge on a 2×3 matrix")
	}
	// Diagonal W = diag(3, 2, 1) scaled by 1/3: σ = 1, 2/3, 1/3.
	diag := []refEdge{{0, 0, 3}, {1, 1, 2}, {2, 2, 1}}
	sv = topSingularValues(diag, 3, 3, 1.0/3, 2, 3, 200, 1, 2)
	if !near(sv.sigma[0], 1, 1e-9) || !near(sv.sigma[1], 2.0/3, 1e-9) {
		t.Errorf("σ = %v, want [1 0.667]", sv.sigma)
	}
}

func TestPoissonMap(t *testing.T) {
	// Σ e^{-1}/ℓ! over all ℓ is 1; τ=20 truncates below 1e-18.
	if h := poissonMap(1, 1, 20); !near(h, 1, 1e-15) {
		t.Errorf("poissonMap(1) = %v, want 1", h)
	}
	// x=0 keeps only ω(0) = e^{-1}.
	if h := poissonMap(0, 1, 20); h != math.Exp(-1) {
		t.Errorf("poissonMap(0) = %v, want e^-1", h)
	}
}

func TestTopNOrder(t *testing.T) {
	// Ties rank toward the smaller id; id 1 is masked.
	got := topN([]float64{1, 5, 3, 3, 2}, 3, func(id int) bool { return id == 1 })
	want := []int{2, 3, 4}
	for i, r := range got {
		if r.id != want[i] {
			t.Fatalf("topN ids %v, want %v", got, want)
		}
	}
}

func TestSimilar(t *testing.T) {
	// Rows (1,0), (1,1), (0,2), (0,0): cosines to row 0 are 1/√2, 0, 0.
	side := &refMat{rows: 4, cols: 2, data: []float64{1, 0, 1, 1, 0, 2, 0, 0}}
	got := similar(0, side, 3)
	if got[0].id != 1 || !near(got[0].score, 1/math.Sqrt2, 1e-15) || got[1].id != 2 || got[2].id != 3 {
		t.Errorf("similar = %v", got)
	}
}

func TestNDCG(t *testing.T) {
	// Held out: items 7 (w 5), 8 (w 1), 9 (w 3); the top-2 truth is {7, 9}.
	held := []refEdge{{0, 7, 5}, {0, 8, 1}, {0, 9, 3}}
	rec := []ranked{{9, 0}, {8, 0}, {7, 0}}
	// Hits at ranks 1 and 3, but n=2 cuts rank 3: DCG = 1, IDCG = 1 + 1/log2(3).
	want := 1 / (1 + 1/math.Log2(3))
	if got := ndcgAt(rec, held, 2); !near(got, want, 1e-15) {
		t.Errorf("ndcg = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

// The checks must reject corrupted outputs.

func TestCheckListRejectsSwap(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.7}
	score := func(id int) (float64, float64) { return scores[id], 1e-12 }
	want := topN(scores, 3, nil) // 0, 3, 2
	got := append([]ranked(nil), want...)
	if err := checkList(got, want, score, nil); err != nil {
		t.Fatalf("correct list rejected: %v", err)
	}
	got[0], got[2] = got[2], got[0]
	if checkList(got, want, score, nil) == nil {
		t.Error("swapped items accepted")
	}
	got = append([]ranked(nil), want...)
	got[1].score += 1e-6
	if checkList(got, want, score, nil) == nil {
		t.Error("perturbed score accepted")
	}
	if checkList(want, want, score, func(id int) bool { return id == 3 }) == nil {
		t.Error("excluded item accepted")
	}
	// A tie within tolerance may hold either item.
	tied := []float64{0.5, 0.5}
	tscore := func(id int) (float64, float64) { return tied[id], 1e-12 }
	if err := checkList([]ranked{{1, 0.5}, {0, 0.5}}, topN(tied, 2, nil), tscore, nil); err != nil {
		t.Errorf("tie order rejected: %v", err)
	}
}

func TestCheckScoresRejectsPerturbation(t *testing.T) {
	e := &refEmbedding{
		u: &refMat{rows: 1, cols: 2, data: []float64{1, 2}},
		v: &refMat{rows: 1, cols: 2, data: []float64{3, 4}},
	}
	pairs := [][2]int{{0, 0}}
	if err := checkScores([]float64{11}, pairs, e); err != nil {
		t.Fatalf("correct score rejected: %v", err)
	}
	if checkScores([]float64{11 + 1e-6}, pairs, e) == nil {
		t.Error("perturbed score accepted")
	}
}

func TestCheckOrthonormalRejectsStretch(t *testing.T) {
	// U = Z·√Λ with Z = I₂ stacked over a zero row, Λ = (4, 9).
	u := &refMat{rows: 3, cols: 2, data: []float64{2, 0, 0, 3, 0, 0}}
	if err := checkOrthonormal(u, []float64{4, 9}); err != nil {
		t.Fatalf("orthonormal columns rejected: %v", err)
	}
	u.data[0] *= 1.001
	if checkOrthonormal(u, []float64{4, 9}) == nil {
		t.Error("stretched column accepted")
	}
}

func TestCheckSpectra(t *testing.T) {
	sigma := []float64{1, 0.8, 0.5}
	// λ_i = e^{σ_i²−1} is exact; 5 % below σ₂² stays within ε·σ₃² = 0.025.
	exact := []float64{1, math.Exp(0.64 - 1)}
	if err := checkGEBEPSpectrum(exact, 1, 0.1, sigma); err != nil {
		t.Fatalf("exact spectrum rejected: %v", err)
	}
	if err := checkGEBEPSpectrum([]float64{1, math.Exp(0.62 - 1)}, 1, 0.1, sigma); err != nil {
		t.Errorf("in-bound Ritz value rejected: %v", err)
	}
	if checkGEBEPSpectrum([]float64{1, math.Exp(0.60 - 1)}, 1, 0.1, sigma) == nil {
		t.Error("Ritz value below the ε bound accepted")
	}
	if checkGEBEPSpectrum([]float64{1, math.Exp(0.65 - 1)}, 1, 0.1, sigma) == nil {
		t.Error("Ritz value above the true value accepted")
	}
	h := []float64{poissonMap(1, 1, 20), poissonMap(0.64, 1, 20)}
	if err := checkGEBESpectrum(h, 1, 20, sigma); err != nil {
		t.Fatalf("exact GEBE values rejected: %v", err)
	}
	if checkGEBESpectrum([]float64{h[1], h[0]}, 1, 20, sigma) == nil {
		t.Error("ascending Ritz values accepted")
	}
	if checkGEBESpectrum([]float64{h[0], h[1] * 1.01}, 1, 20, sigma) == nil {
		t.Error("Ritz value above the Poisson map accepted")
	}
}

func TestCheckProductAndReload(t *testing.T) {
	want := &refMat{rows: 1, cols: 2, data: []float64{1, 2}}
	if err := checkProduct(&refMat{rows: 1, cols: 2, data: []float64{1, 2}}, want); err != nil {
		t.Fatalf("equal product rejected: %v", err)
	}
	if checkProduct(&refMat{rows: 1, cols: 2, data: []float64{1, 2.001}}, want) == nil {
		t.Error("wrong product accepted")
	}
	mem := &dense.Matrix{Rows: 1, Cols: 2, Data: []float64{1.0 / 3, 2}}
	loaded := &dense.Matrix{Rows: 1, Cols: 2, Data: []float64{0.3333333333, 2}}
	if err := checkReload("U", mem, loaded); err != nil {
		t.Fatalf("ten-digit reload rejected: %v", err)
	}
	loaded.Data[0] = 0.3333333334
	if checkReload("U", mem, loaded) == nil {
		t.Error("changed reload accepted")
	}
}

func TestCheckResultUsersRejectsDroppedResult(t *testing.T) {
	var resp recommendResponse
	if err := json.Unmarshal([]byte(`{"results":[{"user":4,"items":[]},{"user":2,"items":[]}]}`), &resp); err != nil {
		t.Fatal(err)
	}
	if err := checkResultUsers(&resp, []int{4, 2}); err != nil {
		t.Fatalf("complete answer rejected: %v", err)
	}
	if checkResultUsers(&resp, []int{2, 4}) == nil {
		t.Error("results out of request order accepted")
	}
	if checkResultUsers(&resp, []int{4, 2, 7}) == nil {
		t.Error("answer with a result dropped accepted")
	}
	resp.Results[1].User = 4
	if checkResultUsers(&resp, []int{4, 2}) == nil {
		t.Error("repeated user accepted")
	}
}

func TestCheckRankedBy(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.7}
	score := func(id int) (float64, float64) { return scores[id], 1e-12 }
	// A candidate subset {0, 2}, ranked.
	got := []ranked{{0, 0.9}, {2, 0.5}}
	if err := checkRankedBy(got, 2, score, func(int) bool { return false }); err != nil {
		t.Fatalf("ranked subset rejected: %v", err)
	}
	if checkRankedBy(got, 1, score, func(int) bool { return false }) == nil {
		t.Error("overlong list accepted")
	}
	if checkRankedBy([]ranked{{2, 0.5}, {0, 0.9}}, 2, score, func(int) bool { return false }) == nil {
		t.Error("unranked list accepted")
	}
}

func TestUserSamplerByDegree(t *testing.T) {
	// Degrees 3, 0, 1: user 1 is never drawn, user 0 about three times as
	// often as user 2.
	in := &inputs{nu: 3, trainPtr: []int{0, 3, 3, 4}, trainItem: []int{0, 1, 2, 0}}
	s := newUserSampler(in, true, rand.New(rand.NewPCG(1, 2)))
	var n [3]int
	for i := 0; i < 40000; i++ {
		n[s.draw()]++
	}
	if n[1] != 0 || n[0] < 29000 || n[0] > 31000 {
		t.Errorf("draws per user %v, want about [30000 0 10000]", n)
	}
}
