package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// steadiness runs the workload n times, each in a fresh process with its
// own seed, as BENCHMARK.json's command is run, and prints each
// end-to-end metric's median, quartiles and spread — the quartile
// distance as a share of the median — against the metric's bound. The
// bounds in BENCHMARK.json are set from this table: every spread should
// stay below a third of its bound.
func steadiness(name string, seed int64, secs float64, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d): %v\n", i, s, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d", s, res.Correct, res.Attempted, res.Failed)
		for _, m := range endToEnd {
			v := res.Metrics[m.name].Value
			values[m.name] = append(values[m.name], v)
			fmt.Printf(" %s=%.6g", m.name, v)
		}
		fmt.Println()
	}
	fmt.Printf("%-12s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, m := range endToEnd {
		xs := values[m.name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := (q3 - q1) / med
		fmt.Printf("%-12s %12.6g %12.6g %12.6g %7.2f%% %7.0f%%", m.name, med, q1, q3, 100*spread, 100*bounds[m.name])
		if b, ok := bounds[m.name]; ok && spread >= b/3 {
			fmt.Print("  above a third of the bound")
		}
		fmt.Println()
	}
	return 0
}

// readBounds returns each end-to-end metric's bound from the benchmark
// description, or none when it cannot be read.
func readBounds(path string) map[string]float64 {
	var desc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	bounds := make(map[string]float64)
	raw, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(raw, &desc) != nil {
		return bounds
	}
	for _, m := range desc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}
