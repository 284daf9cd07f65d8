package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/sim"
	"ccnvm/internal/store"
	"ccnvm/internal/trace"
)

// simShape sizes the sim-suite workload: the paper's five designs times
// the eight SPEC-like profiles, serial, each cell a fixed op count.
type simShape struct {
	cellOps    int // memory ops per (design, profile) cell
	seedPool   int // trace seeds the pinned reference covers
	recoverOps int // ops before the crash whose recovery is timed
	recoveries int // boots of that crash image behind recover_s
	setups     int // set-up repetitions behind setup_s
}

var simSuite = simShape{cellOps: 15000, seedPool: 16, recoverOps: 1_000_000, recoveries: 9, setups: 21}

func tinySim(sh simShape) simShape {
	sh.cellOps = 2000
	sh.seedPool = 2
	sh.recoverOps = 4000
	sh.recoveries = 1
	sh.setups = 2
	return sh
}

// simCell is one (trace seed, profile, design) simulation.
type simCell struct {
	seed   int64
	bench  string
	design string
}

func (c simCell) key() string { return fmt.Sprintf("%d %s %s", c.seed, c.bench, c.design) }

// sweepSeed is the trace seed of sweep k in a run seeded with seed: the
// run walks the pinned pool starting from its own offset.
func (sh *simShape) sweepSeed(seed int64, k int) int64 {
	p := int64(sh.seedPool)
	return ((seed+int64(k))%p+p)%p + 1
}

// sweep lists one sweep's cells in a fixed order.
func sweep(traceSeed int64) []simCell {
	var cells []simCell
	for _, b := range trace.Benchmarks() {
		for _, d := range sim.Designs() {
			cells = append(cells, simCell{seed: traceSeed, bench: b, design: d})
		}
	}
	return cells
}

// runCell simulates one cell.
func (sh *simShape) runCell(c simCell) (sim.Result, error) {
	return sim.RunBenchmark(c.design, c.bench, sh.cellOps, c.seed, sim.Config{})
}

// refLine renders the reference-checked fields of a cell result:
// simulated cycles, instructions, IPC and the NVM write breakdown.
func refLine(c simCell, r sim.Result) string {
	w := r.NVMWrites
	return fmt.Sprintf("%s %d %d %s %d %d %d %d", c.key(), r.Cycles, r.Instructions,
		strconv.FormatFloat(r.IPC, 'g', -1, 64), w.Data, w.HMAC, w.Counter, w.Tree)
}

// simRef is the pinned per-cell reference, keyed by simCell.key.
type simRef map[string]string

func loadSimRef(path string) (simRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref := simRef{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 10 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		ref[strings.Join(fs[:3], " ")] = line
	}
	return ref, sc.Err()
}

// pinSimRef simulates every cell of the seed pool and writes the
// reference file.
func pinSimRef(sh *simShape, path string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# sim-suite reference: %d ops per cell; fields: trace-seed profile design cycles instructions ipc nvm-data nvm-hmac nvm-counter nvm-tree\n", sh.cellOps)
	for s := 1; s <= sh.seedPool; s++ {
		for _, c := range sweep(int64(s)) {
			r, err := sh.runCell(c)
			if err != nil {
				return err
			}
			b.WriteString(refLine(c, r))
			b.WriteByte('\n')
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// check compares a cell result with the reference, exactly.
func (ref simRef) check(c simCell, r sim.Result) error {
	want, ok := ref[c.key()]
	if !ok {
		return fmt.Errorf("sim reference has no cell %q", c.key())
	}
	if got := refLine(c, r); got != want {
		return fmt.Errorf("sim cell mismatch:\n  got  %s\n  want %s", got, want)
	}
	return nil
}

// crashRecoverCell runs the paper's design for n ops of profile bench,
// powers it off at the end and boots the crash image back to a serving
// store (four-step recovery, Apply, TCB restore) reps times, each from
// a copy of the image, since recovery writes to the image it repairs.
// It returns every boot time.
func crashRecoverCell(bench string, traceSeed int64, n, reps int) ([]float64, error) {
	p, err := trace.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	m, err := sim.New(sim.Config{Design: design.CCNVM})
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(p, traceSeed)
	if err != nil {
		return nil, err
	}
	ops := trace.Collect(g, n)
	_, img := m.RunWithCrash(bench, ops, len(ops))
	var times []float64
	for range reps {
		t0 := time.Now()
		st, _, err := store.Reboot(cloneImage(img), store.Options{})
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// cloneImage copies a crash image so recovery can write to the copy:
// the NVM contents are cloned copy-on-write, the rest is shared.
func cloneImage(img *engine.CrashImage) *engine.CrashImage {
	cp := *img
	im := *img.Image
	im.Store = img.Image.Store.Clone()
	cp.Image = &im
	return &cp
}

// simWindow is the cell timings of consecutive whole sweeps.
type simWindow struct {
	cellUS  []float64
	seconds float64
}

// runSim is one untraced sim-suite run: sweeps over the design x
// profile matrix until d has passed, every cell checked against the
// pinned reference, then timed crash recoveries.
func runSim(sh *simShape, refPath string, seed int64, d time.Duration) (*outcome, error) {
	out := newOutcome()
	var (
		ref    simRef
		setups []float64
	)
	for range sh.setups {
		debug.FreeOSMemory() // cold, as in a fresh process
		t0 := time.Now()
		var err error
		if ref, err = loadSimRef(refPath); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Cells are timed in windows of windowSweeps whole sweeps, so every
	// window holds the same design x profile mix; the figures are medians
	// over windows, as for the KV workloads. A trailing partial window is
	// dropped.
	const windowSweeps = 4
	var (
		wins        []simWindow
		cur         simWindow
		total, data uint64
		cells       int
	)
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		for _, c := range sweep(sh.sweepSeed(seed, k)) {
			if time.Since(start) >= d {
				break
			}
			t0 := time.Now()
			r, err := sh.runCell(c)
			dt := time.Since(t0)
			if err != nil {
				return nil, err
			}
			cells++
			out.attempted++
			if err := ref.check(c, r); err != nil {
				out.failed++
				out.problem(err)
			}
			cur.cellUS = append(cur.cellUS, float64(dt.Nanoseconds())/1e3)
			cur.seconds += dt.Seconds()
			total += r.NVMWrites.Total()
			data += r.NVMWrites.Data
		}
		if (k+1)%windowSweeps == 0 && time.Since(start) < d {
			wins = append(wins, cur)
			cur = simWindow{}
		}
	}
	if len(wins) == 0 {
		wins = []simWindow{cur} // a run shorter than one window
	}
	var rates, p50s, p90s, all []float64
	for _, w := range wins {
		rates = append(rates, float64(len(w.cellUS)*sh.cellOps)/w.seconds)
		all = append(all, w.cellUS...)
		p50s = append(p50s, quantile(w.cellUS, 0.50))
		p90s = append(p90s, quantile(w.cellUS, 0.90))
	}

	// One fixed profile, so the image's size does not vary with the seed.
	b := trace.Benchmarks()[0]
	recovers, err := crashRecoverCell(b, sh.sweepSeed(seed, 0), sh.recoverOps, sh.recoveries)
	out.attempted++
	if err != nil {
		out.failed++
		out.problem(fmt.Errorf("crash recovery of %s: %w", b, err))
	}

	out.gate("ops_per_s", median(rates), "1/s")
	out.gate("p50_us", median(p50s), "us")
	out.gate("p90_us", median(p90s), "us")
	out.gate("recover_s", median(recovers), "s")
	out.gate("write_amp", ratio(float64(total), float64(data)), "x")
	out.gate("setup_s", median(setups), "s")
	out.note("sim_ops_per_s", median(rates), "1/s")
	out.note("cells", float64(cells), "count")
	out.note("windows", float64(len(wins)), "count")
	if hasTail(len(all), 0.99) {
		out.note("p99_us", quantile(all, 0.99), "us")
	}
	return out, nil
}
