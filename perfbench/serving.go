package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"

	"gebe"
	"gebe/internal/ann"
	"gebe/internal/obs"
	"gebe/internal/serve"
	"gebe/internal/shard"
)

// stack is one running serving topology: a single serve.Server, or a
// shard.Coordinator in front of two item-shard servers, all on loopback.
type stack struct {
	url     string
	emb     *gebe.Embedding
	server  *serve.Server   // the single server (nil behind a coordinator)
	shards  []*serve.Server // the shard servers (nil for a single server)
	slices  []*gebe.Embedding
	coord   *shard.Coordinator
	annCfg  ann.Config
	https   []*http.Server
	serveCh chan error
	// With tracing on, the access logs of the scoring servers (the single
	// server or every shard) and of the coordinator.
	serveLog, coordLog *accessLog
}

// startStack loads the embedding file and the training edge list the way
// a serving process does and brings the workload's topology up. With
// traced set, request tracing is on in every server.
func startStack(wl *workload, embPath, trainPath string, seed uint64, traced bool) (*stack, error) {
	emb, err := gebe.LoadEmbedding(embPath)
	if err != nil {
		return nil, err
	}
	g, err := gebe.LoadGraph(trainPath)
	if err != nil {
		return nil, err
	}
	st := &stack{emb: emb, annCfg: ann.Config{Seed: seed, Threads: runtime.NumCPU()}, serveCh: make(chan error, 3)}
	traceN := 0
	var serveLog, coordLog *obs.Logger
	if traced {
		traceN = 16
		st.serveLog, st.coordLog = &accessLog{}, &accessLog{}
		serveLog, coordLog = obs.NewLogger(st.serveLog), obs.NewLogger(st.coordLog)
	}
	if !wl.coord {
		st.server, err = serve.New(emb, g, serve.Config{CacheSize: wl.cache, ANN: &st.annCfg,
			Metrics: obs.NewRegistry(), TraceRequests: traceN, Log: serveLog})
		if err != nil {
			return nil, err
		}
		st.url, err = st.listen(st.server.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}
	p, err := shard.NewPartition(emb.V.Rows, 2)
	if err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < p.Count; i++ {
		sl := shard.Slice(emb, p, i)
		srv, err := serve.New(sl, g, serve.Config{CacheSize: wl.cache, ANN: &st.annCfg,
			Metrics: obs.NewRegistry(), TraceRequests: traceN, Log: serveLog})
		if err != nil {
			st.close()
			return nil, err
		}
		u, err := st.listen(srv.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, srv)
		st.slices = append(st.slices, sl)
		urls = append(urls, u)
	}
	st.coord, err = shard.New(shard.Config{Shards: urls, Metrics: obs.NewRegistry(), TraceRequests: traceN, Log: coordLog})
	if err != nil {
		st.close()
		return nil, err
	}
	st.coord.Start()
	st.url, err = st.listen(st.coord.Handler())
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	go func() { st.serveCh <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// close stops the coordinator's prober and every listener, and waits
// for each serving goroutine to return.
func (st *stack) close() {
	if st.coord != nil {
		st.coord.Close()
	}
	for _, hs := range st.https {
		hs.Close()
	}
	for range st.https {
		<-st.serveCh
	}
	st.https = nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true,
	}}
}

// userSampler draws user ids, uniformly or in proportion to each user's
// number of training edges.
type userSampler struct {
	rng   *rand.Rand
	in    *inputs
	byDeg bool
}

func newUserSampler(in *inputs, byDegree bool, rng *rand.Rand) *userSampler {
	return &userSampler{rng: rng, in: in, byDeg: byDegree}
}

func (s *userSampler) draw() int {
	if s.byDeg {
		// The user of a uniformly drawn training edge: the u with
		// trainPtr[u] <= j < trainPtr[u+1].
		j := s.rng.IntN(len(s.in.trainItem))
		return sort.SearchInts(s.in.trainPtr, j+1) - 1
	}
	return s.rng.IntN(s.in.nu)
}

// trafficLen is the number of distinct requests generated per run; the
// load phases cycle through them.
const trafficLen = 1 << 15

// makeTraffic pre-encodes the workload's request stream from the seed:
// recommends for batch users (exact, n=10), and with mixed traffic also
// approx recommends, same-side /v1/similar and 8-pair /v1/score batches.
// The mixed split, 70 % exact and 10 % of each other kind, is an
// assumption: no measured traffic stands behind it.
func makeTraffic(wl *workload, in *inputs, seed uint64) []request {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	users := newUserSampler(in, wl.byDegree, rng)
	nv := in.nv
	out := make([]request, trafficLen)
	for i := range out {
		kind := 0.0
		if wl.mixed {
			kind = rng.Float64()
		}
		switch {
		case kind < 0.7:
			out[i] = recommendFor(drawUsers(users, wl.batch), "")
		case kind < 0.8:
			out[i] = recommendFor(drawUsers(users, wl.batch), "approx")
		case kind < 0.9:
			out[i] = request{method: http.MethodGet, endpoint: "similar",
				path: "/v1/similar?side=u&n=10&id=" + strconv.Itoa(users.draw())}
		default:
			pairs := make([][2]int, 8)
			for j := range pairs {
				pairs[j] = [2]int{users.draw(), rng.IntN(nv)}
			}
			out[i] = jsonRequest("/v1/score", "score", map[string]any{"pairs": pairs})
		}
	}
	return out
}

func drawUsers(users *userSampler, batch int) []int {
	ids := make([]int, batch)
	for j := range ids {
		ids[j] = users.draw()
	}
	return ids
}

// recommendFor encodes a top-10 recommend for ids: a single-user request
// for one id, a batch otherwise.
func recommendFor(ids []int, mode string) request {
	body := map[string]any{"n": 10}
	if len(ids) == 1 {
		body["user"] = ids[0]
	} else {
		body["users"] = ids
	}
	endpoint := "recommend"
	if mode != "" {
		body["mode"] = mode
		endpoint = "recommend-" + mode
	}
	return jsonRequest("/v1/recommend", endpoint, body)
}

func jsonRequest(path, endpoint string, body any) request {
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated request: %v", err))
	}
	return request{method: http.MethodPost, path: path, body: b, endpoint: endpoint}
}
