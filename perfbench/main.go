// Command perfbench is the end-to-end benchmark of the training and
// serving pipeline: a generated edge list is trained into an embedding
// file, the file is served over loopback HTTP, and the served answers
// are checked against references the benchmark computes itself.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// prints the run's accounting and, as its last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). --steady N runs the workload N times with
// seeds seed..seed+N-1 and prints each end-to-end metric's quartiles;
// --overhead runs it untraced and traced and prints the difference.
// See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; the inputs are generated from it")
	seconds := flag.Float64("seconds", 12, "length of the measured serving windows, split evenly between the open and closed loops and over their bursts")
	trace := flag.Int("trace", 0, "1 runs with the program's spans and counters on and reports per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times, seeds seed, seed+1, ..., and print each metric's quartiles")
	overhead := flag.Bool("overhead", false, "run the workload untraced and traced and print the tracing overhead")
	flag.Parse()
	wl := workloadByName(*name)
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	switch {
	case *steady > 0:
		os.Exit(steadiness(wl, *seed, *seconds, *steady))
	case *overhead:
		os.Exit(tracingOverhead(wl, *seed, *seconds))
	}
	os.Exit(runOnce(wl, *seed, *seconds, *trace == 1))
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, ", ")
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce executes one run and prints its accounting and result. It
// returns the exit code: 0 when every check passed.
func runOnce(wl *workload, seed uint64, seconds float64, traced bool) int {
	base := os.Getenv("PERFBENCH_WORK")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &run{wl: wl, seed: seed, seconds: seconds, traced: traced, dir: dir,
		nproc: runtime.NumCPU(), counts: tallies{}, layers: &layerState{}}
	fmt.Printf("run workload=%s seed=%d gomaxprocs=%d threads=%d conns=%d offered_rate=%g/s seconds=%g trace=%v\n",
		wl.name, seed, runtime.GOMAXPROCS(0), r.nproc, r.nproc, wl.rate, seconds, traced)
	if err := r.execute(); err != nil {
		r.fail("%v", err)
	}

	res := result{Correct: len(r.fails) == 0, Metrics: map[string]metricValue{}}
	fmt.Printf("ops phase=train endpoint=solve attempted=%d ok=%d failed=%d\n",
		r.solves.attempted, r.solves.ok, r.solves.failed())
	res.Attempted += r.solves.attempted
	res.Failed += r.solves.failed()
	keys := make([]string, 0, len(r.counts))
	for key := range r.counts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t := r.counts[key]
		phase, endpoint, _ := strings.Cut(key, " ")
		fmt.Printf("ops phase=%s endpoint=%s attempted=%d ok_200=%d non_200=%d transport_errors=%d\n",
			phase, endpoint, t.attempted, t.ok, t.non200, t.transport)
		res.Attempted += t.attempted
		res.Failed += t.failed()
	}
	for _, f := range r.fails {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	for _, m := range r.metrics {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
