package main

// The traced run reports per-layer metrics. Spans are taken here, in
// the benchmark, around calls into each module's public functions; the
// program itself carries no tracing. A KV workload's generated stream
// is replayed in-process from one goroutine, so per-call counter deltas
// repeat exactly from run to run; the same stream is then replayed over
// one TCP connection for the server's self time, and the layers below
// are timed by direct calls on stores shaped like the workload.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"ccnvm/internal/bmt"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/sim"
	"ccnvm/internal/store"
)

// kvProbe is the KV shape sim-suite's traced run measures the serving
// layers on, so every traced run reports every layer: a balanced get
// and batch mix over a preloaded namespace.
var kvProbe = kvShape{capacity: 16 << 20, keys: 4096, valBytes: 256, batchPuts: 4,
	getFrac: 0.5, preload: true, replay: 4000}

// callKV executes req in-process against db, checks the answer against
// the oracle and reports whether it was right.
func callKV(db *kv.DB, o *kvOracle, req *kvRequest, vers []uint32, sh *kvShape, buf []byte) (bool, error) {
	if req.get {
		v, found, err := db.Get(o.key(req.keys[0]))
		if err != nil {
			return false, err
		}
		return o.checkGet(req.keys[0], found, v, buf), nil
	}
	err := db.Batch(o.kvOps(req, vers, sh.valBytes))
	o.ack(req, vers, err == nil)
	return err == nil, nil
}

// replayCounts are the summed counter deltas of one request kind.
type replayCounts struct {
	calls          int
	lat            []time.Duration
	hmac, aes      uint64
	dataW, metaW   uint64
	stallNanos     uint64
	passes, reclmd uint64
}

// replay is one in-process replay of a stream.
type replay struct {
	env    *kvEnv
	counts [2]replayCounts // [0] gets, [1] batches; traced replays only
	sec    engine.SecStats // memo and drain counter deltas
	wall   time.Duration
	failed int
}

// replayInProcess runs n requests of the single-client replay against a
// fresh namespace. With traced set it times every call and attributes
// counter deltas to gets and batches; otherwise it only runs them, for
// the tracing-overhead baseline.
func replayInProcess(sh *kvShape, seed int64, n int, traced bool) (*replay, error) {
	e, err := openKV(sh)
	if err != nil {
		return nil, err
	}
	r := &replay{env: e}
	next := e.replaySource(seed)
	eng, dev := e.st.Engine(), e.st.Device()
	sec0 := eng.Stats()
	var (
		req  kvRequest
		vers []uint32
	)
	buf := make([]byte, sh.valBytes)
	start := time.Now()
	for range n {
		o := next(&req)
		vers = o.batchVersions(&req, vers)
		if !traced {
			ok, err := callKV(e.db, o, &req, vers, sh, buf)
			if err != nil {
				return nil, err
			}
			if !ok {
				r.failed++
			}
			continue
		}
		k := &r.counts[1]
		if req.get {
			k = &r.counts[0]
		}
		s0, w0, d0 := eng.Stats(), dev.Writes(), e.db.Stats()
		t0 := time.Now()
		ok, err := callKV(e.db, o, &req, vers, sh, buf)
		lat := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if !ok {
			r.failed++
		}
		s1, w1, d1 := eng.Stats(), dev.Writes(), e.db.Stats()
		k.calls++
		k.lat = append(k.lat, lat)
		k.hmac += s1.HMACOps - s0.HMACOps
		k.aes += s1.AESOps - s0.AESOps
		k.dataW += w1.Data - w0.Data
		k.metaW += (w1.Total() - w1.Data) - (w0.Total() - w0.Data)
		k.stallNanos += uint64(d1.Stall.StallNanos - d0.Stall.StallNanos)
		if d1.Compaction != nil {
			var p0, r0 uint64
			if d0.Compaction != nil {
				p0, r0 = d0.Compaction.Passes, d0.Compaction.ReclaimedLines
			}
			k.passes += d1.Compaction.Passes - p0
			k.reclmd += d1.Compaction.ReclaimedLines - r0
		}
	}
	r.wall = time.Since(start)
	r.sec = subSec(eng.Stats(), sec0)
	return r, nil
}

// subSec is the memo and drain part of a SecStats difference.
func subSec(a, b engine.SecStats) engine.SecStats {
	return engine.SecStats{
		Drains:            a.Drains - b.Drains,
		DrainLinesFlushed: a.DrainLinesFlushed - b.DrainLinesFlushed,
		PadCacheHits:      a.PadCacheHits - b.PadCacheHits,
		PadCacheMisses:    a.PadCacheMisses - b.PadCacheMisses,
		DataMemoHits:      a.DataMemoHits - b.DataMemoHits,
		DataMemoMisses:    a.DataMemoMisses - b.DataMemoMisses,
		NodeMemoHits:      a.NodeMemoHits - b.NodeMemoHits,
		NodeMemoMisses:    a.NodeMemoMisses - b.NodeMemoMisses,
	}
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }

// noteMemo reports the crypto memo-table hit ratios.
func (o *outcome) noteMemo(s engine.SecStats) {
	o.gate("seccrypto.pad_hit", hitRatio(s.PadCacheHits, s.PadCacheMisses), "ratio")
	o.gate("seccrypto.data_hmac_hit", hitRatio(s.DataMemoHits, s.DataMemoMisses), "ratio")
	o.gate("seccrypto.node_hmac_hit", hitRatio(s.NodeMemoHits, s.NodeMemoMisses), "ratio")
	o.gate("engine.drain_lines_per_drain", ratio(float64(s.DrainLinesFlushed), float64(s.Drains)), "lines")
}

// traceKV is the traced run of a KV workload.
func traceKV(sh *kvShape, seed int64, tiny bool) (*outcome, error) {
	out := newOutcome()
	if err := traceKVLayers(out, sh, seed, true); err != nil {
		return nil, err
	}
	sim := simSuite
	if tiny {
		sim = tinySim(sim)
	}
	if _, err := traceSimLayers(out, &sim, nil, seed); err != nil {
		return nil, err
	}
	return out, nil
}

// traceKVLayers measures every serving layer on shape sh. memo says
// whether the replay's memo ratios and drain size are this workload's
// (sim-suite reports its own).
func traceKVLayers(out *outcome, sh *kvShape, seed int64, memo bool) error {
	n := sh.replay

	// The traced replay of the stream between two untraced ones: the
	// wall-time difference is what the spans and counter reads cost.
	// Bracketing cancels most of the warm-up the first replay pays.
	var plainWall time.Duration
	plain := func() error {
		r, err := replayInProcess(sh, seed, n, false)
		if err != nil {
			return fmt.Errorf("untraced replay: %w", err)
		}
		plainWall += r.wall / 2
		out.attempted += n
		out.failed += r.failed
		return r.env.close()
	}
	if err := plain(); err != nil {
		return err
	}
	tr, err := replayInProcess(sh, seed, n, true)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	out.attempted += n
	out.failed += tr.failed
	if err := plain(); err != nil {
		return err
	}
	e, tracedWall := tr.env, tr.wall
	gets, batches := tr.counts[0], tr.counts[1]

	out.gate("kv.get_us", median(micros(gets.lat)), "us")
	out.gate("kv.batch_us", median(micros(batches.lat)), "us")
	out.gate("kv.stall_share", ratio(float64(gets.stallNanos+batches.stallNanos), float64(tracedWall.Nanoseconds())), "frac")
	out.gate("kv.compact_passes", float64(gets.passes+batches.passes), "count")
	out.gate("kv.reclaimed_lines", float64(gets.reclmd+batches.reclmd), "count")
	out.gate("engine.hmac_per_batch", ratio(float64(batches.hmac), float64(batches.calls)), "ops")
	out.gate("engine.aes_per_batch", ratio(float64(batches.aes), float64(batches.calls)), "ops")
	out.gate("engine.hmac_per_get", ratio(float64(gets.hmac), float64(gets.calls)), "ops")
	out.gate("engine.aes_per_get", ratio(float64(gets.aes), float64(gets.calls)), "ops")
	out.gate("nvm.data_lines_per_batch", ratio(float64(batches.dataW), float64(batches.calls)), "lines")
	out.gate("nvm.meta_lines_per_batch", ratio(float64(batches.metaW), float64(batches.calls)), "lines")
	if memo {
		out.noteMemo(tr.sec)
	}
	out.gate("trace.overhead_frac", tracedWall.Seconds()/plainWall.Seconds()-1, "frac")
	out.note("trace.replay_requests", float64(n), "count")
	out.note("trace.replay_gets", float64(gets.calls), "count")

	// Reads straight into the store under the replayed namespace.
	readUS, err := probeStoreReads(e.st, seed, 4000)
	if err != nil {
		return err
	}
	out.gate("store.read_us", readUS, "us")

	// Crash the replayed namespace and time each recovery step.
	img := e.db.Crash()
	verifyS, speedup := probeTreeKernel(img)
	out.gate("bmt.verify_all_s.w1", verifyS, "s")
	out.gate("bmt.kernel_speedup.w2", speedup, "x")
	t0 := time.Now()
	rep := recovery.Recover(img)
	t1 := time.Now()
	rec := recovery.Apply(img, rep)
	t2 := time.Now()
	st, err := store.OpenRecovered(img, rec, sh.storeOptions())
	if err != nil {
		return err
	}
	t3 := time.Now()
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return err
	}
	t4 := time.Now()
	out.attempted++
	if !rep.Clean() {
		out.failed++
		out.problem(fmt.Errorf("replayed namespace did not recover clean"))
	}
	out.gate("recovery.recover_s", t1.Sub(t0).Seconds(), "s")
	out.gate("recovery.apply_s", t2.Sub(t1).Seconds(), "s")
	out.gate("store.open_recovered_s", t3.Sub(t2).Seconds(), "s")
	out.gate("kv.open_s", t4.Sub(t3).Seconds(), "s")

	// One explicit compaction pass over the recovered namespace, then
	// the acked-write audit on the compacted layout.
	t0 = time.Now()
	if err := db.Compact(); err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	out.gate("kv.compact_pass_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	lost, err := e.verifyAcked(db)
	if err != nil {
		return err
	}
	out.attempted++
	if lost > 0 {
		out.failed++
		out.problem(fmt.Errorf("%d acked keys wrong after recovery and compaction", lost))
	}

	// The same stream over one TCP connection: the server's self time
	// is the round trip minus the in-process call.
	srvEnv, err := setupKV(sh)
	if err != nil {
		return err
	}
	var never atomic.Bool
	cr, err := srvEnv.driveConn(srvEnv.replaySource(seed), &never, n)
	if err != nil {
		return fmt.Errorf("tcp replay: %w", err)
	}
	out.attempted += cr.attempted
	out.failed += cr.failed
	out.gate("server.get_self_us", pairedSelf(cr.lats(true), gets.lat), "us")
	out.gate("server.batch_self_us", pairedSelf(cr.lats(false), batches.lat), "us")
	if err := srvEnv.close(); err != nil {
		return err
	}

	// Group-commit yield under the closed loop's two clients.
	loopEnv, err := setupKV(sh)
	if err != nil {
		return err
	}
	s0 := loopEnv.st.Engine().Stats()
	res, _, _, err := loopEnv.closedLoop(seed, n/kvConns, time.Minute)
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	drains := loopEnv.st.Engine().Stats().Drains - s0.Drains
	loopBatches := 0
	for _, r := range res {
		out.attempted += r.attempted
		out.failed += r.failed
		loopBatches += len(r.lats(false))
	}
	out.gate("kv.batches_per_drain", ratio(float64(loopBatches), float64(drains)), "batches")
	if err := loopEnv.close(); err != nil {
		return err
	}

	return probeStore(out, sh)
}

// pairedSelf is the median over requests of outer minus inner latency,
// pairing the i-th request of two replays of one stream, so each
// difference compares the same request on the same namespace state.
func pairedSelf(outer, inner []time.Duration) float64 {
	n := min(len(outer), len(inner))
	d := make([]float64, n)
	for i := range d {
		d[i] = float64((outer[i] - inner[i]).Nanoseconds()) / 1e3
	}
	return median(d)
}

// probeStoreReads times n reads of random written data lines.
func probeStoreReads(st *store.Store, seed int64, n int) (float64, error) {
	lay := st.Layout()
	var addrs []mem.Addr
	for _, a := range st.Snapshot().Store.Addrs() {
		if lay.RegionOf(a) == mem.RegionData {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return 0, fmt.Errorf("read probe: no data lines")
	}
	rng := rand.New(rand.NewSource(seed))
	lat := make([]time.Duration, n)
	for i := range lat {
		a := addrs[rng.Intn(len(addrs))]
		t0 := time.Now()
		if _, err := st.Read(a); err != nil {
			return 0, err
		}
		lat[i] = time.Since(t0)
	}
	return median(micros(lat)), nil
}

// probeStore times direct store calls on a fresh store shaped like sh:
// log-style sequential writes, epoch flushes after 1, 8 and 64 writes,
// and the reclaim of one arena half of the churn shape.
func probeStore(out *outcome, sh *kvShape) error {
	st, err := store.Open(sh.storeOptions())
	if err != nil {
		return err
	}
	var (
		line mem.Line
		next mem.Addr
		wlat []time.Duration
	)
	write := func() error {
		line[0]++
		t0 := time.Now()
		err := st.Write(next, line)
		wlat = append(wlat, time.Since(t0))
		next += mem.LineSize
		return err
	}
	for _, k := range []int{1, 8, 64} {
		var flat []time.Duration
		for range 4096 / k {
			for range k {
				if err := write(); err != nil {
					return err
				}
			}
			t0 := time.Now()
			if err := st.FlushEpoch(); err != nil {
				return err
			}
			flat = append(flat, time.Since(t0))
		}
		out.gate(fmt.Sprintf("store.flush_epoch_us.%d", k), median(micros(flat)), "us")
	}
	out.gate("store.write_us", median(micros(wlat)), "us")
	if err := st.Close(); err != nil {
		return err
	}

	churn := kvShapes["kv-churn"]
	st, err = store.Open(churn.storeOptions())
	if err != nil {
		return err
	}
	half := mem.Addr(churn.capacity / 2)
	line[1] = 1 // never the zero line, which reclaim skips
	for a := mem.Addr(0); a < half; a += mem.LineSize {
		line[0]++
		if err := st.Write(a, line); err != nil {
			return err
		}
	}
	if err := st.FlushEpoch(); err != nil {
		return err
	}
	t0 := time.Now()
	n, err := st.ReclaimRange(0, half)
	if err != nil {
		return err
	}
	out.gate("store.reclaim_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	out.attempted++
	if n != int(half/mem.LineSize) {
		out.failed++
		out.problem(fmt.Errorf("reclaim returned %d lines, want %d", n, half/mem.LineSize))
	}
	if err := st.Close(); err != nil {
		return err
	}
	probeCrypto(out)
	return nil
}

// probeCrypto times the memo-miss cost of each crypto primitive on an
// uncached engine: one-time-pad encryption, data HMAC, node HMAC.
func probeCrypto(out *outcome) {
	e, err := seccrypto.NewEngineUncached(seccrypto.DefaultKeys())
	if err != nil {
		panic(err) // the default keys are valid by construction
	}
	const n = 20000
	var l mem.Line
	var sink byte
	per := func(f func(i int)) float64 {
		t0 := time.Now()
		for i := range n {
			f(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	out.gate("seccrypto.pad_ns", per(func(i int) {
		c := e.Encrypt(mem.Addr(i*mem.LineSize), uint64(i), l)
		sink ^= c[0]
	}), "ns")
	out.gate("seccrypto.data_hmac_ns", per(func(i int) {
		h := e.DataHMAC(mem.Addr(i*mem.LineSize), uint64(i), l)
		sink ^= h[0]
	}), "ns")
	out.gate("seccrypto.node_hmac_ns", per(func(i int) {
		l[0] = byte(i)
		l[1] = byte(i >> 8)
		h := e.NodeHMAC(l)
		sink ^= h[0]
	}), "ns")
	_ = sink
}

// probeTreeKernel runs the recovery-style tree kernel (VerifyAll plus
// Rebuild) over the image's counter lines with one and two workers. It
// returns the serial VerifyAll time and the two-worker speedup of the
// whole kernel. There is no four-worker point: it would exceed the
// two-CPU host the benchmark is sized for.
func probeTreeKernel(img *engine.CrashImage) (float64, float64) {
	lay := img.Image.Layout
	tr := bmt.New(lay, seccrypto.MustEngine(img.Keys))
	st := &mem.Store{}
	var counters []mem.Addr
	for _, a := range img.Image.Store.Addrs() {
		if lay.RegionOf(a) == mem.RegionCounter {
			l, _ := img.Image.Store.Read(a)
			st.Write(a, l)
			counters = append(counters, a)
		}
	}
	nodes, root := tr.Rebuild(st, counters)
	for a, n := range nodes {
		st.Write(a, n)
	}
	addrs := st.Addrs()
	// Each width runs until it has taken 100 ms (at least three times)
	// and reports medians; worker engines are forked lazily, so both
	// widths are warmed once first.
	kernel := func(w int) (verify, total float64) {
		var vs, ks []float64
		for spent := time.Duration(0); len(ks) < 3 || spent < 100*time.Millisecond; {
			t0 := time.Now()
			tr.VerifyAllParallel(st, root, addrs, w)
			v := time.Since(t0)
			tr.RebuildParallel(st, counters, w)
			k := time.Since(t0)
			vs, ks = append(vs, v.Seconds()), append(ks, k.Seconds())
			spent += k
		}
		return median(vs), median(ks)
	}
	kernel(1)
	kernel(2)
	v1, k1 := kernel(1)
	_, k2 := kernel(2)
	return v1, k1 / k2
}

// traceSim is sim-suite's traced run: the simulator replay plus the
// serving layers measured on the KV probe shape.
func traceSim(sh *simShape, refPath string, seed int64, tiny bool) (*outcome, error) {
	out := newOutcome()
	ref, err := loadSimRef(refPath)
	if err != nil {
		return nil, err
	}
	sec, err := traceSimLayers(out, sh, ref, seed)
	if err != nil {
		return nil, err
	}
	out.noteMemo(sec)
	probe := kvProbe
	if tiny {
		probe = tinyKV(probe)
	}
	if err := traceKVLayers(out, &probe, seed, false); err != nil {
		return nil, fmt.Errorf("kv probe: %w", err)
	}
	return out, nil
}

// traceSimLayers simulates one sweep of the design x profile matrix,
// serially, and reports per-design throughput and allocations per op.
// With a reference, every cell is checked against it.
func traceSimLayers(out *outcome, sh *simShape, ref simRef, seed int64) (engine.SecStats, error) {
	var (
		sec    engine.SecStats
		ms0    runtime.MemStats
		ms1    runtime.MemStats
		ops    uint64
		wall   = map[string]time.Duration{}
		cellsN = map[string]int{}
	)
	runtime.ReadMemStats(&ms0)
	for _, c := range sweep(sh.sweepSeed(seed, 0)) {
		t0 := time.Now()
		r, err := sh.runCell(c)
		if err != nil {
			return sec, err
		}
		wall[c.design] += time.Since(t0)
		cellsN[c.design]++
		ops += uint64(sh.cellOps)
		if ref != nil {
			out.attempted++
			if err := ref.check(c, r); err != nil {
				out.failed++
				out.problem(err)
			}
		}
		sec = addSec(sec, r.Sec)
	}
	runtime.ReadMemStats(&ms1)
	for _, d := range sim.Designs() {
		out.gate("sim.ops_per_s."+d, float64(cellsN[d]*sh.cellOps)/wall[d].Seconds(), "1/s")
	}
	out.gate("sim.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ops)), "allocs")
	return sec, nil
}

func addSec(a, b engine.SecStats) engine.SecStats {
	return engine.SecStats{
		Drains:            a.Drains + b.Drains,
		DrainLinesFlushed: a.DrainLinesFlushed + b.DrainLinesFlushed,
		PadCacheHits:      a.PadCacheHits + b.PadCacheHits,
		PadCacheMisses:    a.PadCacheMisses + b.PadCacheMisses,
		DataMemoHits:      a.DataMemoHits + b.DataMemoHits,
		DataMemoMisses:    a.DataMemoMisses + b.DataMemoMisses,
		NodeMemoHits:      a.NodeMemoHits + b.NodeMemoHits,
		NodeMemoMisses:    a.NodeMemoMisses + b.NodeMemoMisses,
	}
}
