package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the figures the repeat criterion is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	q := make([]float64, 0, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q = append(q, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/n)
	}
	return q[0], q[1], q[2]
}

// childRun runs the benchmark once as a child process and parses its
// result line.
func childRun(workload string, seed int, seconds float64, trace bool, stateDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", tr, "-state", stateDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v): %w", workload, seed, runErr, err)
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s seed %d: correct=%v: %v", workload, seed, res.Correct, runErr)
	}
	return &res, nil
}

// runSteadiness runs every workload n times untraced (seeds 1..n)
// and `traced` times traced, and prints each end-to-end metric's median,
// quartiles and spread against its bound, plus the tracing overhead.
func runSteadiness(n, traced int, seconds float64, stateDir string) error {
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	steady := true
	for _, w := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= n; seed++ {
			res, err := childRun(w.name, seed, seconds, false, stateDir)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "steadiness: %s seed %d: %d ops\n", w.name, seed, res.Attempted)
		}
		fmt.Printf("%s: %d runs of %g s\n", w.name, n, seconds)
		fmt.Printf("  %-18s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q1, med, q3 := quartiles(values[name])
			spread := (q3 - q1) / med
			// A metric's spread must stay under a third of its bound. setup_s
			// is compared between runs by its median only, so its spread
			// need only stay under the bound itself.
			verdict := ""
			if b, ok := bounds[name]; ok {
				limit := b / 3
				if name == "setup_s" {
					limit = b
				}
				verdict = "ok"
				if spread >= limit {
					verdict = "WIDE"
					steady = false
				}
			}
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %8.4f %8.3g %s %s\n", name, q1, med, q3, spread, bounds[name], units[name], verdict)
		}
		if traced > 0 {
			var tracedP50 []float64
			for seed := 1; seed <= traced; seed++ {
				res, err := childRun(w.name, seed, seconds, true, stateDir)
				if err != nil {
					return err
				}
				tracedP50 = append(tracedP50, res.Metrics["trace.op_p50_ms"].Value)
			}
			untraced := values["op_p50_ms"][:traced]
			fmt.Printf("  tracing overhead on op_p50_ms (seeds 1..%d): %+.4g ms (traced median %.4g, untraced median %.4g)\n",
				traced, median(tracedP50)-median(untraced), median(tracedP50), median(untraced))
		}
	}
	if !steady {
		return fmt.Errorf("a spread is at or above a third of its bound")
	}
	return nil
}
