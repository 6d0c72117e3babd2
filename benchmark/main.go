// Command benchmark is the repository's single performance instrument: eight
// closed-loop workloads on the message path, three end-to-end metrics each,
// a per-layer ladder and a traced run. README.md in this directory has the
// tables; BENCHMARK.json at the repository root names what is gated.
//
// With -workload it measures one workload in this process and prints one
// JSON result as its last line (the contract the driver runs). Without, it
// re-executes itself once per workload and run, and prints the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pamigo/internal/watchdog"
)

// options are the lengths of a run; -quick divides them for the smoke test.
type options struct {
	warmup int // warm-up batches of every instance
	div    int // divisor of the ops in a batch
	setups int // set-ups per untraced run; setup_s is their median
}

var (
	fullOptions  = options{warmup: 100, div: 1, setups: 5}
	quickOptions = options{warmup: 2, div: 16, setups: 1}
)

// metric is one reported value; result is the last line of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "measure this one workload in-process and print one JSON result")
		seed         = flag.Int64("seed", 1, "seed of the payload patterns and of the fault plan")
		seconds      = flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		traceOut     = flag.String("trace-out", "", "where the traced run writes its spans (default .bench_out/trace-<workload>.json)")
		quick        = flag.Bool("quick", false, "1/100 length: a smoke run, its numbers mean nothing")
		repeat       = flag.Int("repeat", 1, "run the whole set N times on seeds seed..seed+N-1 and check every cell's spread against its bound")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out          = flag.String("out", "", "write the JSON result of the whole set here (default .bench_out/result.json)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs())

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			fatalf("unknown workload %q", *workloadName)
		}
		o := fullOptions
		if *quick {
			o = quickOptions
		}
		secs := *seconds
		if secs == 0 {
			secs = float64(loadSpec().RunSeconds)
		}
		if *quick {
			secs /= 100
		}
		os.Exit(child(w, *seed, time.Duration(secs*float64(time.Second)), *trace != 0, *traceOut, o))
	default:
		os.Exit(suite(*seed, *seconds, *repeat, *quick, *out))
	}
}

// maxProcs is the GOMAXPROCS every run uses and every result records.
func maxProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// child measures one workload in this process, under a deadline, and prints
// its result as the last line of standard output.
func child(w *workload, seed int64, window time.Duration, traced bool, traceOut string, o options) int {
	acct := newAccount()
	metrics := make(map[string]metric)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if traced {
			perLayerRun(w, seed, window, traceOut, o, acct, loadSpec().PerLayer, metrics)
		} else {
			endToEndRun(w, seed, window, o, acct, metrics)
		}
	}()
	// A rank that failed has usually left its peers waiting for it; give
	// them a moment, then treat the workload as hung.
	deadline := time.NewTimer(2*window + 60*time.Second)
	hung := false
	select {
	case <-done:
	case <-deadline.C:
		hung = true
	case <-acct.broken:
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			hung = true
		}
	}
	if hung {
		os.Stderr.Write(watchdog.Stacks())
		unfinished := acct.attempted.Load() - acct.completed.Load()
		if unfinished < 1 {
			unfinished = 1
		}
		acct.fail(unfinished, "%s: %d ops unfinished at the deadline", w.name, unfinished)
		metrics = map[string]metric{}
	}
	res := result{
		Correct:   acct.failed.Load() == 0,
		Attempted: max(acct.attempted.Load(), 1),
		Failed:    acct.failed.Load(),
		Metrics:   metrics,
	}
	for _, r := range acct.reasons() {
		fmt.Fprintln(os.Stderr, "FAILED:", r)
	}
	printMetrics(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndRun is the untraced run: o.setups set-ups, the last of which goes
// on into the timed window.
func endToEndRun(w *workload, seed int64, window time.Duration, o options, acct *account, metrics map[string]metric) {
	var setups []float64
	var e *env
	for i := 0; i < o.setups; i++ {
		win := time.Duration(0)
		if i == o.setups-1 {
			win = window
		}
		e = newEnv(w, seed, win, o, acct, false)
		w.run(e)
		if acct.failed.Load() > 0 {
			return
		}
		setups = append(setups, e.setup.Seconds())
	}
	if len(e.lat) == 0 {
		acct.fail(1, "%s: no timed batch", w.name)
		return
	}
	metrics["setup_s"] = metric{median(setups), "s"}
	metrics["ops_per_s"] = metric{float64(e.ops) / e.elapsed.Seconds(), "op/s"}
	metrics["lat_us_p50"] = metric{median(e.lat), "us"}
	fmt.Printf("%s: %d ops and %d latency samples in a window of %.3f s; %d set-ups\n", w.name, e.ops, len(e.lat), e.elapsed.Seconds(), len(setups))
}

func printMetrics(name string, res result) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("%s: %s, attempted_ops %d, failed_ops %d\n", name, verdict, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-36s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
