package perf

import (
	"math/rand"
	"runtime"
	"time"

	"ccnvm/internal/bmt"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// MeasureOptions parameterize one ledger measurement.
type MeasureOptions struct {
	Ops        int      // memory operations per (design, benchmark) cell
	Seed       int64    // workload seed
	Benchmarks []string // nil = the full eight-benchmark suite
	Designs    []string // nil = the paper's five designs
	Workers    []int    // worker counts for the parallel kernel; nil = {1, 2, 4, NumCPU}
	Reps       int      // timing repetitions per design, best-of (0 = 3)

	// KernelLeaves is the number of counter lines populated for the
	// serial-vs-parallel tree kernel. 0 picks a default sized so the
	// kernel runs for a measurable fraction of a second.
	KernelLeaves int
}

func (o *MeasureOptions) fill() {
	if o.Ops <= 0 {
		o.Ops = 60000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Benchmarks == nil {
		o.Benchmarks = trace.Benchmarks()
	}
	if o.Designs == nil {
		o.Designs = sim.Designs()
	}
	if o.Workers == nil {
		o.Workers = []int{1, 2, 4}
		if n := runtime.NumCPU(); n > 4 {
			o.Workers = append(o.Workers, n)
		}
	}
	if o.KernelLeaves <= 0 {
		o.KernelLeaves = 6000
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
}

// Measure runs the ledger measurement: the full design × benchmark
// simulator matrix for throughput, memo rates and allocation density,
// plus the subtree-sharded tree kernel for serial-vs-parallel speedup.
// Cells run sequentially on purpose — concurrent cells would contend
// for cores and corrupt each other's wall-clock numbers.
func Measure(o MeasureOptions) (*Ledger, error) {
	o.fill()
	l := &Ledger{
		Schema:     Schema,
		Ops:        o.Ops,
		Seed:       o.Seed,
		Benchmarks: o.Benchmarks,
		Designs:    make(map[string]DesignPerf, len(o.Designs)),
	}
	l.HostFingerprint()

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)

	// Each design's suite is timed Reps times and the fastest pass is
	// recorded: the simulation is deterministic, so the minimum is the
	// least-noisy estimate — crucial for a stable regression gate on
	// small, shared CI runners.
	var sec engine.SecStats
	for _, d := range o.Designs {
		best := 0.0
		for rep := 0; rep < o.Reps; rep++ {
			dStart := time.Now()
			for _, b := range o.Benchmarks {
				r, err := sim.RunBenchmark(d, b, o.Ops, o.Seed, sim.Config{})
				if err != nil {
					return nil, err
				}
				if rep > 0 {
					continue // count each cell's memo traffic once
				}
				sec.PadCacheHits += r.Sec.PadCacheHits
				sec.PadCacheMisses += r.Sec.PadCacheMisses
				sec.DataMemoHits += r.Sec.DataMemoHits
				sec.DataMemoMisses += r.Sec.DataMemoMisses
				sec.NodeMemoHits += r.Sec.NodeMemoHits
				sec.NodeMemoMisses += r.Sec.NodeMemoMisses
			}
			if wall := time.Since(dStart).Seconds(); rep == 0 || wall < best {
				best = wall
			}
		}
		ops := int64(o.Ops) * int64(len(o.Benchmarks))
		l.Designs[d] = DesignPerf{WallSeconds: best, OpsPerSec: float64(ops) / best}
		l.SimOps += ops
		l.WallSeconds += best
	}
	l.OpsPerSec = float64(l.SimOps) / l.WallSeconds

	runtime.ReadMemStats(&msAfter)
	if l.SimOps > 0 {
		// The malloc delta spans every repetition; SimOps counts one.
		l.AllocsPerOp = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(l.SimOps*int64(o.Reps))
	}
	l.Memo = MemoRates{
		Pad:     ratio(sec.PadCacheHits, sec.PadCacheMisses),
		Data:    ratio(sec.DataMemoHits, sec.DataMemoMisses),
		Node:    ratio(sec.NodeMemoHits, sec.NodeMemoMisses),
		Overall: sec.MemoHitRatio(),
	}
	l.Parallel = treeKernel(o.KernelLeaves, o.Workers)
	return l, nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// treeKernel times the recovery-style VerifyAll + Rebuild sweep — the
// pure-crypto workload the subtree sharding parallelizes — at each
// worker count. The populated store and the expected outputs are
// identical across worker counts (the pipeline's bit-identity
// contract), so only wall time varies.
func treeKernel(leaves int, workerCounts []int) []ParallelPoint {
	lay := mem.MustLayout(64 << 20)
	cry := seccrypto.MustEngine(seccrypto.DefaultKeys())
	tr := bmt.New(lay, cry)
	st := &mem.Store{}

	rng := rand.New(rand.NewSource(99))
	total := lay.LevelNodes(0)
	for i := 0; i < leaves; i++ {
		leaf := rng.Uint64() % total
		a := lay.CounterLineAddr(leaf)
		line, _ := st.Read(a)
		c := seccrypto.DecodeCounterLine(line)
		c.Bump(i % mem.BlocksPerPage)
		st.Write(a, c.Encode())
	}
	var counters []mem.Addr
	for _, a := range st.Addrs() {
		if lay.RegionOf(a) == mem.RegionCounter {
			counters = append(counters, a)
		}
	}
	nodes, root := tr.Rebuild(st, counters)
	for a, n := range nodes {
		st.Write(a, n)
	}
	addrs := st.Addrs()

	points := make([]ParallelPoint, 0, len(workerCounts))
	var serial float64
	for _, w := range workerCounts {
		// One untimed pass first: worker engines are forked lazily and
		// keep their memo tables afterwards, so without a warm-up the
		// first worker count measured would pay every cold miss and later
		// ones would ride warmed forks, skewing the speedup curve.
		tr.VerifyAllParallel(st, root, addrs, w)
		tr.RebuildParallel(st, counters, w)
		// Best of three runs: the kernel is deterministic, so the minimum
		// is the least-noisy estimate of its true cost.
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			tr.VerifyAllParallel(st, root, addrs, w)
			tr.RebuildParallel(st, counters, w)
			if d := time.Since(t0).Seconds(); rep == 0 || d < best {
				best = d
			}
		}
		if w == 1 || serial == 0 {
			serial = best
		}
		points = append(points, ParallelPoint{Workers: w, WallSeconds: best, Speedup: serial / best})
	}
	return points
}
