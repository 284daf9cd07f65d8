// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks every output, and prints each metric by
// name with its unit, ending with one JSON result line.
//
//	perfbench -workload kv-write -seed 1 -seconds 10 -trace 0
//
// Workloads: kv-write, kv-read and kv-churn drive the KV daemon's
// server over loopback TCP from two closed-loop clients; sim-suite runs
// the simulator's design x profile matrix. -trace 1 replaces the timed
// run with the traced run that reports per-layer metrics. README.md
// describes the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// outcome collects one run's checks and metrics.
type outcome struct {
	attempted, failed int
	problems          []string          // first few correctness failures
	gated             map[string]metric // the result line's metrics
	notes             []namedMetric     // every metric, in print order
}

type namedMetric struct {
	name string
	metric
}

func newOutcome() *outcome { return &outcome{gated: map[string]metric{}} }

// gate records a metric of the result line (and prints it).
func (o *outcome) gate(name string, v float64, unit string) {
	o.gated[name] = metric{Value: v, Unit: unit}
	o.note(name, v, unit)
}

// note records a metric that is printed but not part of the result line.
func (o *outcome) note(name string, v float64, unit string) {
	o.notes = append(o.notes, namedMetric{name, metric{Value: v, Unit: unit}})
}

func (o *outcome) problem(err error) {
	if len(o.problems) < 5 {
		o.problems = append(o.problems, err.Error())
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainCode()) }

// mainCode runs the command and returns its exit code: 1 when the run
// fails or any check fails.
func mainCode() int {
	workload := flag.String("workload", "", "kv-write, kv-read, kv-churn or sim-suite")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	simRefPath := flag.String("sim-ref", "sim_reference.txt", "pinned sim-suite reference")
	pin := flag.Bool("pin-sim-ref", false, "simulate the reference seed pool, write -sim-ref and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *pin {
		if err := pinSimRef(&simSuite, *simRefPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	out, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, false, *simRefPath)
	if err != nil {
		return fail(err)
	}
	if !emit(os.Stdout, out) {
		return 1
	}
	return 0
}

// run dispatches one workload run.
func run(workload string, seed int64, d time.Duration, traced, tiny bool, simRefPath string) (*outcome, error) {
	if d <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	shape, err := shapeOf(workload, tiny)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v tiny=%v\n", workload, seed, d.Seconds(), traced, tiny)
	ctx, _ := json.Marshal(map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"shape": fmt.Sprintf("%+v", shape),
	})
	fmt.Printf("# context %s\n", ctx)

	var out *outcome
	switch sh := shape.(type) {
	case kvShape:
		if traced {
			out, err = traceKV(&sh, seed, tiny)
		} else {
			out, err = runKV(&sh, seed, d)
		}
	case simShape:
		if traced {
			out, err = traceSim(&sh, simRefPath, seed, tiny)
		} else {
			out, err = runSim(&sh, simRefPath, seed, d)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !traced {
		out.gate("rss_peak_mb", rssPeakMB(), "MB")
	}
	return out, nil
}

// shapeOf returns the workload's kvShape or simShape.
func shapeOf(workload string, tiny bool) (any, error) {
	if workload == "sim-suite" {
		if tiny {
			return tinySim(simSuite), nil
		}
		return simSuite, nil
	}
	sh, ok := kvShapes[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (kv-write, kv-read, kv-churn, sim-suite)", workload)
	}
	if tiny {
		return tinyKV(sh), nil
	}
	return sh, nil
}

// emit prints every metric as "name value unit", then the JSON result
// line last. It reports whether the run was correct.
func emit(w *os.File, out *outcome) bool {
	for _, m := range out.notes {
		fmt.Fprintf(w, "%-34s %-22v %s\n", m.name, m.Value, m.Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "# FAIL", p)
	}
	ok := out.failed == 0 && out.attempted > 0
	metrics := map[string]metric{}
	for name, m := range out.gated {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(w, "# FAIL metric %s is not a number\n", name)
			ok = false
			continue
		}
		metrics[name] = m
	}
	b, _ := json.Marshal(result{Correct: ok, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	fmt.Fprintln(w, string(b))
	return ok
}
