package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
)

// Response shapes of the /v1 API, decoded by the benchmark's own types.
type servedItem struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

type recommendResponse struct {
	Results []struct {
		User  int          `json:"user"`
		Items []servedItem `json:"items"`
	} `json:"results"`
	Truncated bool `json:"truncated"`
}

type similarResponse struct {
	Neighbors []servedItem `json:"neighbors"`
}

type scoreResponse struct {
	Scores []float64 `json:"scores"`
}

func toRanked(items []servedItem) []ranked {
	out := make([]ranked, len(items))
	for i, it := range items {
		out[i] = ranked{it.Item, it.Score}
	}
	return out
}

// Check-phase sample sizes.
const (
	checkUsers  = 32  // exact recommend lists
	recallUsers = 500 // approx lists scored for recall
)

// checkServing checks served answers against the brute-force references
// and returns the approx lists' mean recall@10 against the exact top 10
// and the share of approx lists shorter than the exact ones.
// It ends by feeding the checkers corrupted copies of real answers, each
// of which must be rejected.
func (r *run) checkServing(client *http.Client, st *stack, in *inputs, e *refEmbedding) (recall, shortShare float64) {
	rng := rand.New(rand.NewPCG(r.seed, 0xbb67ae8584caa73b))
	users := newUserSampler(in, r.wl.byDegree, rng)
	get := func(req request, into any) bool {
		status, body, err := call(client, st.url, &req)
		r.counts.add("check", req.endpoint, status, err != nil)
		if err != nil || status != http.StatusOK {
			r.fail("%s %s: status %d, %v", req.method, req.path, status, err)
			return false
		}
		if err := json.Unmarshal(body, into); err != nil {
			r.fail("%s %s: decoding %q: %v", req.method, req.path, body, err)
			return false
		}
		return true
	}
	scoreOf := func(u int) func(int) (float64, float64) {
		return func(v int) (float64, float64) {
			a, b := e.u.row(u), e.v.row(v)
			return dot(a, b), scoreTol(a, b)
		}
	}
	banned := func(u int) func(int) bool { return func(v int) bool { return in.trained(u, v) } }

	// Exact lists, in the workload's batch shape: one result per
	// requested user, in request order. The first request is sent twice,
	// so a cached answer is checked too where a cache is on.
	var sampleGot, sampleWant []ranked
	var sampleUser int
	var sampleResp recommendResponse
	var sampleIDs []int
	var batches [][]int
	for len(batches)*r.wl.batch < checkUsers {
		batches = append(batches, drawUsers(users, r.wl.batch))
	}
	batches = append(batches, batches[0])
	for _, ids := range batches {
		var resp recommendResponse
		if !get(recommendFor(ids, ""), &resp) {
			continue
		}
		if resp.Truncated {
			r.fail("recommend answered truncated")
		}
		if err := checkResultUsers(&resp, ids); err != nil {
			r.fail("recommend: %v", err)
			continue
		}
		sampleResp, sampleIDs = resp, ids
		for _, res := range resp.Results {
			want := recommend(res.User, e.u, e.v, banned(res.User), 10)
			got := toRanked(res.Items)
			if err := checkList(got, want, scoreOf(res.User), banned(res.User)); err != nil {
				r.fail("recommend user %d: %v", res.User, err)
			}
			sampleGot, sampleWant, sampleUser = got, want, res.User
		}
	}

	// Pair scores.
	var pairs [][2]int
	var scores []float64
	for q := 0; q < 2; q++ {
		batch := make([][2]int, 8)
		for j := range batch {
			batch[j] = [2]int{users.draw(), rng.IntN(in.nv)}
		}
		var resp scoreResponse
		if get(jsonRequest("/v1/score", "score", map[string]any{"pairs": batch}), &resp) {
			if err := checkScores(resp.Scores, batch, e); err != nil {
				r.fail("score: %v", err)
			}
			pairs, scores = batch, resp.Scores
		}
	}

	// User-side cosine neighbours.
	for q := 0; q < 8; q++ {
		id := users.draw()
		var resp similarResponse
		req := request{method: http.MethodGet, endpoint: "similar",
			path: "/v1/similar?side=u&n=10&id=" + strconv.Itoa(id)}
		if !get(req, &resp) {
			continue
		}
		norms := func(i int) float64 { return dot(e.u.row(i), e.u.row(i)) }
		cos := func(j int) (float64, float64) {
			a, b := e.u.row(id), e.u.row(j)
			d := norms(id) * norms(j)
			if d <= 0 {
				return 0, 1e-12
			}
			return dot(a, b) / math.Sqrt(d), 1e-9
		}
		if err := checkList(toRanked(resp.Neighbors), similar(id, e.u, 10), cos, func(j int) bool { return j == id }); err != nil {
			r.fail("similar id %d: %v", id, err)
		}
	}

	// Approx lists at the default probe: every listed score must be the
	// item's exact dot product, and the list must rank its own items;
	// recall is the share of the exact top 10 it finds. A list may come
	// back shorter than the 10 items the user has unmasked, because the
	// program searches only the probed clusters; such lists are counted.
	// The first checkUsers users are also asked for with every cluster
	// probed (nprobe is clamped to the cluster count, which is at most
	// the item count), where the list must be the exact one.
	var hits, total, short int
	for q := 0; q < recallUsers; q++ {
		u := users.draw()
		want := recommend(u, e.u, e.v, banned(u), 10)
		if q < checkUsers {
			var full recommendResponse
			if get(jsonRequest("/v1/recommend", "recommend-approx-full", map[string]any{"user": u, "n": 10, "mode": "approx", "nprobe": in.nv}), &full) {
				if err := checkResultUsers(&full, []int{u}); err != nil {
					r.fail("full-probe approx recommend: %v", err)
				} else if err := checkList(toRanked(full.Results[0].Items), want, scoreOf(u), banned(u)); err != nil {
					r.fail("full-probe approx recommend user %d: %v", u, err)
				}
			}
		}
		var resp recommendResponse
		if !get(jsonRequest("/v1/recommend", "recommend-approx", map[string]any{"user": u, "n": 10, "mode": "approx"}), &resp) {
			continue
		}
		if err := checkResultUsers(&resp, []int{u}); err != nil {
			r.fail("approx recommend: %v", err)
			continue
		}
		got := toRanked(resp.Results[0].Items)
		if err := checkRankedBy(got, 10, scoreOf(u), banned(u)); err != nil {
			r.fail("approx recommend user %d: %v", u, err)
		}
		if len(got) < len(want) {
			short++
		}
		exact := make(map[int]bool)
		for _, w := range want {
			exact[w.id] = true
		}
		for _, g := range got {
			if exact[g.id] {
				hits++
			}
		}
		total += len(exact)
	}

	r.selfCheckServing(sampleGot, sampleWant, scoreOf(sampleUser), banned(sampleUser), pairs, scores, e)
	r.selfCheckResults(&sampleResp, sampleIDs)
	fmt.Printf("check approx users=%d short_lists=%d full_probe_users=%d\n", recallUsers, short, checkUsers)
	if total == 0 {
		return 0, 0
	}
	return float64(hits) / float64(total), float64(short) / recallUsers
}

// checkResultUsers checks that a recommend answer holds one result per
// requested user, in the order the request named them.
func checkResultUsers(resp *recommendResponse, users []int) error {
	if len(resp.Results) != len(users) {
		return fmt.Errorf("%d results for %d requested users", len(resp.Results), len(users))
	}
	for i, res := range resp.Results {
		if res.User != users[i] {
			return fmt.Errorf("result %d is for user %d, the request named user %d", i, res.User, users[i])
		}
	}
	return nil
}

// checkRankedBy checks a list ranked over a candidate subset: at most n
// distinct, allowed ids whose scores are their reference scores, in
// descending order with ties toward the smaller id.
func checkRankedBy(got []ranked, n int, score func(id int) (float64, float64), banned func(id int) bool) error {
	if len(got) > n {
		return fmt.Errorf("list has %d items, at most %d asked for", len(got), n)
	}
	seen := make(map[int]bool, len(got))
	for i, g := range got {
		if seen[g.id] {
			return fmt.Errorf("item %d listed twice", g.id)
		}
		seen[g.id] = true
		if banned(g.id) {
			return fmt.Errorf("item %d at rank %d is excluded", g.id, i+1)
		}
		exact, tol := score(g.id)
		if d := g.score - exact; d > tol || d < -tol {
			return fmt.Errorf("item %d at rank %d has score %v, reference %v", g.id, i+1, g.score, exact)
		}
		if i > 0 && ranksBefore(g, got[i-1]) {
			return fmt.Errorf("rank %d (item %d, %v) outranks rank %d (item %d, %v)",
				i+1, g.id, g.score, i, got[i-1].id, got[i-1].score)
		}
	}
	return nil
}

// selfCheckServing feeds the serving checkers corrupted copies of real
// answers: a list with its first and last items swapped, and a pair
// score moved by a millionth. A checker that accepts either is broken.
func (r *run) selfCheckServing(got, want []ranked, score func(int) (float64, float64), banned func(int) bool,
	pairs [][2]int, scores []float64, e *refEmbedding) {
	if len(got) >= 2 {
		swapped := append([]ranked(nil), got...)
		last := len(swapped) - 1
		swapped[0], swapped[last] = swapped[last], swapped[0]
		if checkList(swapped, want, score, banned) == nil {
			r.fail("self-check: the list check accepted swapped items")
		}
	} else {
		r.fail("self-check: no recommend list to corrupt")
	}
	if len(scores) > 0 {
		bad := append([]float64(nil), scores...)
		a, b := e.u.row(pairs[0][0]), e.v.row(pairs[0][1])
		bad[0] += 1e-6 * math.Sqrt(dot(a, a)*dot(b, b))
		if checkScores(bad, pairs, e) == nil {
			r.fail("self-check: the score check accepted a perturbed score")
		}
	} else {
		r.fail("self-check: no pair scores to corrupt")
	}
}

// selfCheckResults feeds the result check a real batch answer with its
// last result dropped, and one with its first result's user changed. A
// check that accepts either is broken.
func (r *run) selfCheckResults(resp *recommendResponse, users []int) {
	if len(resp.Results) == 0 {
		r.fail("self-check: no recommend answer to corrupt")
		return
	}
	dropped := *resp
	dropped.Results = resp.Results[:len(resp.Results)-1]
	if checkResultUsers(&dropped, users) == nil {
		r.fail("self-check: the result check accepted an answer with a result dropped")
	}
	moved := *resp
	moved.Results = append(moved.Results[:0:0], resp.Results...)
	moved.Results[0].User++
	if checkResultUsers(&moved, users) == nil {
		r.fail("self-check: the result check accepted a result for a user not requested")
	}
}
