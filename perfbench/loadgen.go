package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// request is one pre-encoded HTTP call of a workload's traffic.
type request struct {
	method, path string
	body         []byte
	// endpoint labels the call in the per-run accounting.
	endpoint string
}

// tally counts one phase/endpoint's calls.
type tally struct {
	attempted, ok, non200, transport int
}

func (t *tally) add(status int, transport bool) {
	t.attempted++
	switch {
	case transport:
		t.transport++
	case status != http.StatusOK:
		t.non200++
	default:
		t.ok++
	}
}

func (t *tally) failed() int { return t.non200 + t.transport }

// tallies is the per-run accounting, keyed "phase endpoint".
type tallies map[string]*tally

func (ts tallies) add(phase, endpoint string, status int, transport bool) {
	key := phase + " " + endpoint
	t := ts[key]
	if t == nil {
		t = &tally{}
		ts[key] = t
	}
	t.add(status, transport)
}

// call performs one request, reads the whole body and returns the status
// and the body.
func call(client *http.Client, base string, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// epoch is the origin of the sample clock.
var epoch = time.Now()

// now reads the sample clock: monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// sample is one request of a load phase. It holds no pointers, so a long
// phase adds nothing for the garbage collector to scan in the process the
// servers share with the benchmark.
type sample struct {
	due, sent, done int64 // sample clock
	status          int32
	transport       bool  // the call failed below HTTP
	req             int32 // index into the traffic
}

func (s *sample) failed() bool { return s.transport || s.status != http.StatusOK }

// openResult is the outcome of an open-loop phase.
type openResult struct {
	samples    []sample // every request, warm-up included
	late       []float64
	start, end int64 // the measured window, sample clock
}

// openLoop offers reqs (cycled from offset) at a fixed rate for warm+window,
// over conns connections: a dispatcher releases request i at
// start + i/rate whatever the state of earlier requests, and a request
// waits for a free connection if none is idle. Latency is timed from the
// due time, so a stall also delays the requests queued behind it.
func openLoop(client *http.Client, base string, reqs []request, offset int, rate float64, conns int, warm, window time.Duration) openResult {
	n := int(math.Ceil(rate * (warm + window).Seconds()))
	res := openResult{samples: make([]sample, n), late: make([]float64, n)}
	queue := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &res.samples[i]
				s.req = int32((offset + i) % len(reqs))
				s.sent = now()
				status, _, err := call(client, base, &reqs[s.req])
				s.done = now()
				s.status, s.transport = int32(status), err != nil
			}
		}()
	}
	start := now()
	res.start = start + int64(warm)
	res.end = res.start + int64(window)
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)/rate*1e9)
		sleepUntil(epoch.Add(time.Duration(due)))
		res.samples[i].due = due
		res.late[i] = float64(now()-due) / 1e9
		queue <- i
		// Let the worker just readied run on this P now: the next
		// sleepUntil blocks in a system call that keeps the P, and a
		// goroutine left in its run queue would wait for the runtime to
		// take the P back.
		runtime.Gosched()
	}
	close(queue)
	wg.Wait()
	return res
}

// inWindow returns the samples due inside the measured window.
func (r *openResult) inWindow() []sample {
	var out []sample
	for _, s := range r.samples {
		if s.due >= r.start {
			out = append(out, s)
		}
	}
	return out
}

// subwindowSamples is the fewest samples a latency sub-window holds, so
// that its p99 has at least ten samples beyond it.
const subwindowSamples = 1000

// bursts is how many open-loop and closed-loop phases a run alternates.
const bursts = 3

// load is the outcome of a run's load phases.
type load struct {
	opens   []openResult
	closeds []closedResult
}

// inWindow returns the open-loop samples due inside a measured window.
func (ld *load) inWindow() []sample {
	var out []sample
	for i := range ld.opens {
		out = append(out, ld.opens[i].inWindow()...)
	}
	return out
}

// latency returns the open loop's p50 and p99 latency in milliseconds,
// timed from each request's due time. Each burst's window is cut into as
// many equal sub-windows as hold subwindowSamples each (at least one), and
// each percentile is the median over all bursts' sub-windows, so that a
// stalled stretch (a GC cycle, a noisy neighbour) moves it little. A
// failed request counts as missing every limit.
func (ld *load) latency() (p50, p99 float64, subs int) {
	var p50s, p99s []float64
	for i := range ld.opens {
		open := &ld.opens[i]
		window := open.inWindow()
		n := max(1, len(window)/subwindowSamples)
		span := open.end - open.start
		lats := make([][]float64, n)
		for _, s := range window {
			j := min(n-1, int(int64(n)*(s.due-open.start)/span))
			lat := float64(s.done-s.due) / 1e6
			if s.failed() {
				lat = math.Inf(1)
			}
			lats[j] = append(lats[j], lat)
		}
		for _, l := range lats {
			p50s = append(p50s, quantile(l, 0.5))
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	return median(p50s), median(p99s), len(p50s)
}

// lateP99ms is the p99 of how late the dispatcher released requests.
func (ld *load) lateP99ms() float64 {
	var late []float64
	for i := range ld.opens {
		late = append(late, ld.opens[i].late...)
	}
	return quantile(late, 0.99) * 1e3
}

// rps is the median over every burst's closedSubwindow slices of the
// requests completed per second, and the slices' counts.
func (ld *load) rps() (float64, []int) {
	var rates []float64
	var counts []int
	for _, c := range ld.closeds {
		sub := c.window / float64(len(c.perSub))
		for _, n := range c.perSub {
			rates = append(rates, float64(n)/sub)
			counts = append(counts, n)
		}
	}
	return median(rates), counts
}

// completed is the number of closed-loop requests finished in a window.
func (ld *load) completed() int {
	n := 0
	for _, c := range ld.closeds {
		n += c.completed
	}
	return n
}

// closedResult is the outcome of a closed-loop phase.
type closedResult struct {
	samples   []sample
	completed int     // requests finished inside the window
	window    float64 // seconds
	// perSub counts the requests finished in each closedSubwindow-long
	// slice of the window.
	perSub []int
	// Runtime counters across the window: heap bytes allocated and GC
	// cycles, for the whole process (client and servers alike).
	allocBytes, gcCycles float64
}

// closedLoop runs conns callers that each send their next request only
// when the previous one has answered, for warm+window; rps is the count
// of requests finished inside the window over the window's length.
func closedLoop(client *http.Client, base string, reqs []request, offset, conns int, warm, window time.Duration) closedResult {
	var next atomic.Int64
	start := now()
	winStart, winEnd := start+int64(warm), start+int64(warm+window)
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now() < winEnd {
				s := sample{req: int32((offset + int(next.Add(1)-1)) % len(reqs)), sent: now()}
				s.due = s.sent
				status, _, err := call(client, base, &reqs[s.req])
				s.done = now()
				s.status, s.transport = int32(status), err != nil
				per[c] = append(per[c], s)
			}
		}(c)
	}
	time.Sleep(time.Duration(winStart - now()))
	a0, g0 := runtimeCounters()
	time.Sleep(time.Duration(winEnd - now()))
	a1, g1 := runtimeCounters()
	wg.Wait()
	res := closedResult{window: window.Seconds(), allocBytes: a1 - a0, gcCycles: g1 - g0,
		perSub: make([]int, max(1, int(window/closedSubwindow)))}
	for _, ss := range per {
		for _, s := range ss {
			res.samples = append(res.samples, s)
			if !s.failed() && s.done >= winStart && s.done < winEnd {
				res.completed++
				res.perSub[min(len(res.perSub)-1, int((s.done-winStart)/int64(closedSubwindow)))]++
			}
		}
	}
	return res
}

// closedSubwindow is the slice of the closed-loop window throughput is
// counted over.
const closedSubwindow = 500 * time.Millisecond

// runtimeCounters reads the process's cumulative heap allocation bytes
// and completed GC cycles.
func runtimeCounters() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() float64 {
	a, _ := runtimeCounters()
	return a
}

// liveHeapBytes reads the bytes held by heap objects; right after a
// forced GC that is the live heap.
func liveHeapBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
