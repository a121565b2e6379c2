package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// child runs this benchmark once more in a fresh process and returns its
// result line and every other line it printed.
func child(wl *workload, seed uint64, seconds float64, traced bool) (*result, []string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("seed %d: no output", seed)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("seed %d: result line: %w", seed, err)
	}
	return &res, lines[:len(lines)-1], nil
}

// quartiles returns the first, second and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here are the ones that method gives.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// steadiness runs the workload count times with consecutive seeds and
// prints, per end-to-end metric, the median, the quartiles and their
// distance as a share of the median.
func steadiness(wl *workload, seed uint64, seconds float64, count int) int {
	values := map[string][]float64{}
	units := map[string]string{}
	var attempted, failed int
	for i := 0; i < count; i++ {
		res, _, err := child(wl, seed+uint64(i), seconds, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		attempted += res.Attempted
		failed += res.Failed
		line := fmt.Sprintf("seed=%d correct=%v attempted=%d failed=%d", seed+uint64(i), res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			line += fmt.Sprintf(" %s=%.4g", name, m.Value)
		}
		fmt.Println(line)
	}
	names := sortedKeys(values)
	fmt.Printf("steadiness workload=%s runs=%d failed_share=%d/%d\n", wl.name, count, failed, attempted)
	fmt.Printf("%-18s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		q := quartiles(values[name])
		med := median(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q[2] - q[0]) / med
		}
		fmt.Printf("%-18s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name], med, q[0], q[2], 100*spread)
	}
	return 0
}

// tracingOverhead runs the workload untraced and then traced on the same
// seed and prints the traced run's per-layer metrics, then train_s and
// rps of both runs and their differences.
func tracingOverhead(wl *workload, seed uint64, seconds float64) int {
	plain, _, err := child(wl, seed, seconds, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	traced, lines, err := child(wl, seed, seconds, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var trainS, rps float64
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "traced_e2e ") {
			_, err = fmt.Sscanf(l, "traced_e2e train_s=%g rps=%g", &trainS, &rps)
			found = err == nil
		}
	}
	if !found {
		fmt.Fprintln(os.Stderr, "perfbench: the traced run printed no traced_e2e line")
		return 1
	}
	for _, name := range sortedKeys(traced.Metrics) {
		m := traced.Metrics[name]
		fmt.Printf("traced %-30s %12.6g %s\n", name, m.Value, m.Unit)
	}
	pt, pr := plain.Metrics["train_s"].Value, plain.Metrics["rps"].Value
	fmt.Printf("overhead workload=%s seed=%d train_s untraced=%.4f traced=%.4f diff=%+.4f (%+.1f%%) rps untraced=%.1f traced=%.1f diff=%+.1f (%+.1f%%)\n",
		wl.name, seed, pt, trainS, trainS-pt, 100*(trainS-pt)/pt, pr, rps, rps-pr, 100*(rps-pr)/pr)
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
