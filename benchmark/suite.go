package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// specMetric and spec mirror BENCHMARK.json, which is where the gated
// metrics, their directions and their bounds are fixed.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// program runs inside benchmark/, from its parent.
func loadSpec() spec {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			fatalf("%s: %v", p, err)
		}
		return s
	}
	fatalf("BENCHMARK.json not found in . or ..")
	return spec{}
}

// envInfo is what every result records about where it was measured.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	e := envInfo{GoVersion: runtime.Version(), GOMAXPROCS: maxProcs(), NumCPU: runtime.NumCPU(), CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if e.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// cell is one (metric, workload) pairing over the repeats of a suite run.
type cell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better,omitempty"`
	Bound    float64   `json:"bound,omitempty"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	IQR      float64   `json:"iqr"`
	Spread   float64   `json:"spread"` // IQR / median
}

func (c *cell) fold() {
	c.Median = median(c.Values)
	q1, q3 := quartiles(c.Values)
	c.IQR = q3 - q1
	if c.Median != 0 {
		c.Spread = c.IQR / c.Median
	}
}

// suiteResult is the one JSON result of a whole-set run.
type suiteResult struct {
	Env       envInfo `json:"env"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Repeat    int     `json:"repeat"`
	Attempted int64   `json:"attempted_ops"`
	Failed    int64   `json:"failed_ops"`
	EndToEnd  []*cell `json:"end_to_end"`
	PerLayer  []*cell `json:"per_layer"`
}

// runChild re-executes this binary for one workload and one run. The child
// has its own deadline; the context only bounds a child too wedged to meet
// it.
func runChild(exe, workload string, seed int64, seconds float64, trace int, quick bool) (result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: no result (%v): %v", workload, runErr, err)
	}
	return res, nil
}

// suite runs every workload in a child process, untraced and traced,
// repeat times, and prints and writes the result. It returns the exit code.
func suite(seed int64, seconds float64, repeat int, quick bool, out string) int {
	sp := loadSpec()
	if seconds == 0 {
		seconds = float64(sp.RunSeconds)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	res := suiteResult{Env: currentEnv(), Seed: seed, Seconds: seconds, Repeat: repeat}
	fmt.Printf("go %s, GOMAXPROCS %d of %d CPUs, %s, commit %s, seed %d\n",
		res.Env.GoVersion, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.CPUModel, res.Env.Commit, seed)
	cells := map[string]*cell{}
	add := func(list *[]*cell, w string, m specMetric, got map[string]metric) {
		v, ok := got[m.Name]
		if !ok || v.Unit != m.Unit {
			fmt.Fprintf(os.Stderr, "FAILED: %s: metric %s missing or not in %s\n", w, m.Name, m.Unit)
			res.Failed++
			return
		}
		c := cells[w+"/"+m.Name]
		if c == nil {
			c = &cell{Workload: w, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			cells[w+"/"+m.Name] = c
			*list = append(*list, c)
		}
		c.Values = append(c.Values, v.Value)
	}
	for rep := 0; rep < repeat; rep++ {
		for _, w := range sp.Workloads {
			for trace, list := range []struct {
				metrics []specMetric
				cells   *[]*cell
			}{{sp.EndToEnd, &res.EndToEnd}, {sp.PerLayer, &res.PerLayer}} {
				r, err := runChild(exe, w.Name, seed+int64(rep), seconds, trace, quick)
				if err != nil {
					fmt.Fprintln(os.Stderr, "FAILED:", err)
					res.Failed++
					continue
				}
				res.Attempted += r.Attempted
				res.Failed += r.Failed
				verdict := "correct"
				if !r.Correct {
					verdict = "INCORRECT"
				}
				fmt.Printf("run %d %-16s trace %d: %s, attempted_ops %d, failed_ops %d\n", rep+1, w.Name, trace, verdict, r.Attempted, r.Failed)
				for _, m := range list.metrics {
					add(list.cells, w.Name, m, r.Metrics)
				}
			}
		}
	}
	code := 0
	if res.Failed > 0 {
		code = 1
	}
	for _, c := range append(append([]*cell(nil), res.EndToEnd...), res.PerLayer...) {
		c.fold()
	}
	fmt.Println("\nend-to-end (gated): median over runs, spread = IQR/median")
	for _, c := range res.EndToEnd {
		note := ""
		if repeat > 1 && c.Spread > c.Bound {
			note = "  SPREAD OVER BOUND"
			code = 1
		}
		fmt.Printf("  %-16s %-12s %14.6g %-5s spread %.3f bound %.2f%s\n", c.Workload, c.Metric, c.Median, c.Unit, c.Spread, c.Bound, note)
	}
	printLayers(res.PerLayer)
	if out == "" {
		out = filepath.Join(".bench_out", "result.json")
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing the result:", err)
		return 1
	}
	fmt.Printf("\nattempted_ops %d, failed_ops %d; result written to %s\n", res.Attempted, res.Failed, out)
	return code
}

// printLayers prints the per-layer table: one row per metric, one column
// per workload. The ladder rungs do not depend on the workload, so their
// row shows the median over the workloads' runs.
func printLayers(cells []*cell) {
	fmt.Println("\nper layer (not gated): one column per workload, in the order above")
	rows := map[string][]*cell{}
	var names []string
	for _, c := range cells {
		if rows[c.Metric] == nil {
			names = append(names, c.Metric)
		}
		rows[c.Metric] = append(rows[c.Metric], c)
	}
	for _, n := range names {
		fmt.Printf("  %-34s %-7s", n, rows[n][0].Unit)
		for _, c := range rows[n] {
			fmt.Printf(" %10.4g", c.Median)
		}
		fmt.Println()
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// suite results: both medians, the ratio with its base, and a verdict
// against the cell's bound. A cell whose spread exceeds its bound in either
// file is unresolved, not unchanged.
func compareFiles(a, b string) int {
	var ra, rb suiteResult
	for _, f := range []struct {
		path string
		into *suiteResult
	}{{a, &ra}, {b, &rb}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fatalf("%s: %v", f.path, err)
		}
	}
	if ra.Env.GOMAXPROCS != rb.Env.GOMAXPROCS {
		fatalf("refusing to compare GOMAXPROCS %d (%s) with %d (%s)", ra.Env.GOMAXPROCS, a, rb.Env.GOMAXPROCS, b)
	}
	base := map[string]*cell{}
	for _, c := range ra.EndToEnd {
		base[c.Workload+"/"+c.Metric] = c
	}
	code := 0
	fmt.Printf("%-16s %-12s %14s %14s  %s\n", "workload", "metric", "a (base)", "b", "b/a")
	for _, cb := range rb.EndToEnd {
		ca := base[cb.Workload+"/"+cb.Metric]
		if ca == nil || ca.Median == 0 {
			continue
		}
		ratio := cb.Median / ca.Median
		worse := ratio - 1
		if cb.Better == "higher" {
			worse = 1 - ratio
		}
		verdict := "within bound"
		switch {
		case ca.Spread > ca.Bound || cb.Spread > cb.Bound:
			verdict = fmt.Sprintf("UNRESOLVED: spread %.3f / %.3f over bound %.2f", ca.Spread, cb.Spread, cb.Bound)
		case worse > cb.Bound:
			verdict = fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", worse*100, cb.Bound*100)
			code = 1
		}
		fmt.Printf("%-16s %-12s %14.6g %14.6g  %.3f of %.6g %s  %s\n", cb.Workload, cb.Metric, ca.Median, cb.Median, ratio, ca.Median, cb.Unit, verdict)
	}
	return code
}
