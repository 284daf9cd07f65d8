package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// kvConns is the closed-loop client count. Two connections match a
// two-CPU host; more would measure the scheduler rather than the store.
const kvConns = 2

// kvShape sizes one KV workload. Every key belongs to exactly one
// connection (rank r of connection c is key r*kvConns+c), so each
// client can predict every value it reads.
type kvShape struct {
	capacity   uint64  // store data-region bytes
	keys       int     // key space across all connections
	valBytes   int     // bytes per value
	batchPuts  int     // puts per batch request
	getFrac    float64 // share of requests that are gets
	zipf       bool    // Zipf-skewed key ranks (else uniform)
	preload    bool    // write every key once during set-up
	rate       float64 // requests/s a run is sized by (see kvEnv.closedLoop)
	replay     int     // requests in each traced single-client replay
	setups     int     // set-up repetitions behind setup_s
	recoveries int     // crash-image boots behind recover_s
}

// kvShapes are the KV workloads; README.md says why each exists.
var kvShapes = map[string]kvShape{
	// Puts only, uniform over 1M keys, into a 512 MiB store: a run's
	// ~64 MB of log stays far below the slowdown band of its 256 MiB half.
	// A 2% get share keeps the read path measurable without loading it.
	"kv-write": {capacity: 512 << 20, keys: 1 << 20, valBytes: 128, batchPuts: 4,
		getFrac: 0.02, rate: 9000, replay: 6000, setups: 21, recoveries: 3},
	// 100k preloaded 256 B values (~27 MB of log, far past what the
	// 128 KiB metadata cache covers); 95% Zipf gets, 5% one-put batches.
	"kv-read": {capacity: 128 << 20, keys: 100_000, valBytes: 256, batchPuts: 1,
		getFrac: 0.95, zipf: true, preload: true, rate: 42000, replay: 20000, setups: 3, recoveries: 3},
	// A 512-key x 1 KiB hot set in an 8 MiB arena: the log wraps every
	// ~1k batches, so compaction and the ladder run many times per run.
	"kv-churn": {capacity: 8 << 20, keys: 512, valBytes: 1024, batchPuts: 4,
		getFrac: 0.25, preload: true, rate: 1900, replay: 3000, setups: 21, recoveries: 3},
}

// tinyKV shrinks a shape for the self-tests: same mix, seconds-free.
func tinyKV(sh kvShape) kvShape {
	sh.keys = min(sh.keys, 256)
	sh.capacity = min(sh.capacity, 2<<20)
	sh.replay = 400
	sh.setups = 2
	sh.recoveries = 1
	return sh
}

func (sh *kvShape) storeOptions() store.Options {
	return store.Options{
		Design:   design.CCNVM,
		Capacity: sh.capacity,
		// The daemon's defaults (ccnvm-kvd -n 16 -queue 64, serial tree).
		Params: engine.Params{UpdateLimit: 16, QueueEntries: 64},
	}
}

// kvRequest is one generated client request: a get of keys[0] or a
// batch of puts to keys, as partition-local ranks.
type kvRequest struct {
	get  bool
	keys []int
}

// kvStream generates one connection's request sequence from the seed.
type kvStream struct {
	sh   *kvShape
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newKVStream(sh *kvShape, seed int64, conn int) *kvStream {
	s := &kvStream{sh: sh, n: sh.keys / kvConns,
		rng: rand.New(rand.NewSource(seed*7919 + int64(conn)))}
	if sh.zipf {
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(s.n-1))
	}
	return s
}

func (s *kvStream) rank() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	return s.rng.Intn(s.n)
}

func (s *kvStream) next(req *kvRequest) {
	req.get = s.rng.Float64() < s.sh.getFrac
	n := s.sh.batchPuts
	if req.get {
		n = 1
	}
	req.keys = req.keys[:0]
	for range n {
		req.keys = append(req.keys, s.rank())
	}
}

// verUnknown marks a key whose last write failed, so its value is not
// predictable; the failure itself is already counted.
const verUnknown = ^uint32(0)

// kvOracle is one connection's record of its last acknowledged write
// per key: version 0 means never written.
type kvOracle struct {
	conn int
	ver  []uint32
}

func newOracles(sh *kvShape) []*kvOracle {
	os := make([]*kvOracle, kvConns)
	for c := range os {
		os[c] = &kvOracle{conn: c, ver: make([]uint32, sh.keys/kvConns)}
	}
	return os
}

// appendKey appends the key of rank: "k" and seven decimal digits.
func (o *kvOracle) appendKey(b []byte, rank int) []byte {
	k := rank*kvConns + o.conn
	var d [7]byte
	for i := len(d) - 1; i >= 0; i-- {
		d[i] = '0' + byte(k%10)
		k /= 10
	}
	return append(append(b, 'k'), d[:]...)
}

func (o *kvOracle) key(rank int) []byte { return o.appendKey(make([]byte, 0, 8), rank) }

// fillValue writes the deterministic value of (key, version) to dst:
// lowercase letters, so it travels through JSON unescaped.
func fillValue(dst []byte, key int, ver uint32) {
	var h uint64
	for i := range dst {
		if i%8 == 0 {
			h = mem.Mix64(uint64(key)<<32 | uint64(ver) + uint64(i))
		}
		dst[i] = 'a' + byte(h%26)
		h /= 26
	}
}

// batchVersions returns the version each put of req writes, counting
// repeats of a key inside the batch.
func (o *kvOracle) batchVersions(req *kvRequest, vers []uint32) []uint32 {
	vers = vers[:0]
	for i, r := range req.keys {
		v := o.ver[r]
		for j := 0; j < i; j++ {
			if req.keys[j] == r {
				v = vers[j]
			}
		}
		vers = append(vers, v+1)
	}
	return vers
}

// ack records a batch outcome.
func (o *kvOracle) ack(req *kvRequest, vers []uint32, ok bool) {
	for i, r := range req.keys {
		if ok {
			o.ver[r] = vers[i]
		} else {
			o.ver[r] = verUnknown
		}
	}
}

// checkGet reports whether a get of rank returned what the oracle
// predicts.
func (o *kvOracle) checkGet(rank int, found bool, val []byte, buf []byte) bool {
	v := o.ver[rank]
	switch v {
	case verUnknown:
		return true
	case 0:
		return !found
	}
	fillValue(buf, rank*kvConns+o.conn, v)
	return found && string(val) == string(buf)
}

// kvOps converts a batch request to kv ops with fresh value buffers.
func (o *kvOracle) kvOps(req *kvRequest, vers []uint32, valBytes int) []kv.Op {
	ops := make([]kv.Op, len(req.keys))
	for i, r := range req.keys {
		val := make([]byte, valBytes)
		fillValue(val, r*kvConns+o.conn, vers[i])
		ops[i] = kv.Op{Kind: kv.OpPut, Key: o.key(r), Val: val}
	}
	return ops
}

// appendWire renders req as one JSON-lines protocol request. Keys and
// values are ASCII letters and digits, so no escaping is needed.
func (o *kvOracle) appendWire(b []byte, req *kvRequest, vers []uint32, val []byte) []byte {
	if req.get {
		b = append(b, `{"op":"get","key":"`...)
		b = o.appendKey(b, req.keys[0])
		return append(b, "\"}\n"...)
	}
	b = append(b, `{"op":"batch","ops":[`...)
	for i, r := range req.keys {
		if i > 0 {
			b = append(b, ',')
		}
		fillValue(val, r*kvConns+o.conn, vers[i])
		b = append(b, `{"op":"put","key":"`...)
		b = o.appendKey(b, r)
		b = append(b, `","val":"`...)
		b = append(b, val...)
		b = append(b, `"}`...)
	}
	return append(b, "]}\n"...)
}

// userBytes is the key+value payload a batch request carries.
func (sh *kvShape) userBytes(req *kvRequest) uint64 {
	return uint64(len(req.keys) * (8 + sh.valBytes))
}

// kvEnv is one set-up namespace: a fresh store, the KV DB over it and
// the daemon's server on a loopback listener.
type kvEnv struct {
	sh      *kvShape
	st      *store.Store
	db      *kv.DB
	srv     *kv.Server
	addr    string
	served  chan error
	oracles []*kvOracle
}

// setupKV opens the namespace, preloads it when the shape says so and
// starts serving.
func setupKV(sh *kvShape) (*kvEnv, error) {
	e, err := openKV(sh)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.srv = kv.NewServer(e.db)
	e.addr = ln.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// openKV is setupKV without the server, for in-process replays.
func openKV(sh *kvShape) (*kvEnv, error) {
	st, err := store.Open(sh.storeOptions())
	if err != nil {
		return nil, err
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, err
	}
	e := &kvEnv{sh: sh, st: st, db: db, oracles: newOracles(sh)}
	if sh.preload {
		if err := e.preload(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// preload writes version 1 of every key in 64-put batches.
func (e *kvEnv) preload() error {
	const per = 64
	var ops []kv.Op
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		err := e.db.Batch(ops)
		ops = ops[:0]
		return err
	}
	for _, o := range e.oracles {
		for r := range o.ver {
			val := make([]byte, e.sh.valBytes)
			fillValue(val, r*kvConns+o.conn, 1)
			ops = append(ops, kv.Op{Kind: kv.OpPut, Key: o.key(r), Val: val})
			o.ver[r] = 1
			if len(ops) == per {
				if err := flush(); err != nil {
					return fmt.Errorf("preload: %w", err)
				}
			}
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// close stops the server (if any) and shuts the namespace down.
func (e *kvEnv) close() error {
	if e.srv != nil {
		e.srv.Close()
		if err := <-e.served; err != nil {
			return err
		}
		e.srv = nil
	}
	if err := e.db.Close(); err != nil {
		return err
	}
	return e.st.Close()
}

// connResult is one client connection's tally.
type connResult struct {
	samples   []sample // one per answered request, in order
	attempted int
	failed    int    // failed, refused or wrong-valued requests
	userBytes uint64 // acknowledged key+value bytes
}

// lats lists the latencies of the connection's gets or batches, in
// request order.
func (r *connResult) lats(get bool) []time.Duration {
	var ds []time.Duration
	for _, s := range r.samples {
		if s.get == get {
			ds = append(ds, s.lat)
		}
	}
	return ds
}

// source yields a client's next request and the oracle that owns it.
type source func(req *kvRequest) *kvOracle

// connSource is connection c's own request stream.
func (e *kvEnv) connSource(seed int64, c int) source {
	s, o := newKVStream(e.sh, seed, c), e.oracles[c]
	return func(req *kvRequest) *kvOracle {
		s.next(req)
		return o
	}
}

// replaySource interleaves every connection's stream, one request of
// each in turn: the single-client replay of what the closed loop sends.
func (e *kvEnv) replaySource(seed int64) source {
	srcs := make([]source, kvConns)
	for c := range srcs {
		srcs[c] = e.connSource(seed, c)
	}
	i := 0
	return func(req *kvRequest) *kvOracle {
		i++
		return srcs[(i-1)%kvConns](req)
	}
}

// driveConn runs one closed-loop client: send a request, wait for its
// response, check it, repeat n times or until stop is set. A broken
// connection ends the loop with an error.
func (e *kvEnv) driveConn(next source, stop *atomic.Bool, n int) (connResult, error) {
	r := connResult{samples: make([]sample, 0, n)}
	c, err := net.Dial("tcp", e.addr)
	if err != nil {
		return r, err
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	var (
		req  kvRequest
		vers []uint32
		wire []byte
		resp kv.Response
	)
	val := make([]byte, e.sh.valBytes)
	for i := 0; i < n && !stop.Load(); i++ {
		o := next(&req)
		vers = o.batchVersions(&req, vers)
		wire = o.appendWire(wire[:0], &req, vers, val)
		r.attempted++
		t0 := time.Now()
		if _, err := c.Write(wire); err != nil {
			r.failed++
			return r, err
		}
		line, err := br.ReadSlice('\n')
		lat := time.Since(t0)
		if err != nil {
			r.failed++
			return r, err
		}
		resp = kv.Response{}
		if err := json.Unmarshal(line, &resp); err != nil {
			r.failed++
			return r, err
		}
		r.samples = append(r.samples, sample{end: t0.Add(lat), lat: lat, get: req.get, ok: resp.OK})
		if req.get {
			if !resp.OK || !o.checkGet(req.keys[0], resp.Found, []byte(resp.Val), val) {
				r.failed++
			}
			continue
		}
		o.ack(&req, vers, resp.OK)
		if !resp.OK {
			r.failed++
			continue
		}
		r.userBytes += e.sh.userBytes(&req)
	}
	return r, nil
}

// closedLoop drives kvConns clients against the server, each sending
// n requests. A run's work is fixed rather than its duration, so the
// crash image, the audit and the memory footprint do not grow when the
// store gets faster; the loop still stops at limit should a build be
// far slower than the shape's reference rate.
func (e *kvEnv) closedLoop(seed int64, n int, limit time.Duration) ([]connResult, time.Time, time.Duration, error) {
	var stop atomic.Bool
	res := make([]connResult, kvConns)
	errs := make([]error, kvConns)
	var wg sync.WaitGroup
	timer := time.AfterFunc(limit, func() { stop.Store(true) })
	start := time.Now()
	for c := range kvConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[c], errs[c] = e.driveConn(e.connSource(seed, c), &stop, n)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	timer.Stop()
	return res, start, elapsed, errors.Join(errs...)
}

// requestsPerConn sizes a run: the requests each client sends so the
// run lasts about d at the shape's reference rate.
func (sh *kvShape) requestsPerConn(d time.Duration) int {
	return max(1, int(sh.rate*d.Seconds())/kvConns)
}

// crashRecover powers the namespace off, then boots the crash image
// back to a serving DB reps times — four-step recovery, TCB restore,
// log scan — each time from a copy of the image, since recovery writes
// to the image it repairs. It returns the last DB and every boot time.
func (e *kvEnv) crashRecover(reps int) (*kv.DB, []float64, error) {
	if e.srv != nil {
		e.srv.Close()
		if err := <-e.served; err != nil {
			return nil, nil, err
		}
		e.srv = nil
	}
	img := e.db.Crash()
	var (
		db    *kv.DB
		times []float64
	)
	for range reps {
		cp := cloneImage(img)
		t0 := time.Now()
		st, _, err := store.Reboot(cp, e.sh.storeOptions())
		if err != nil {
			return nil, nil, err
		}
		if db, err = kv.Open(st, kv.Options{}); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return db, times, nil
}

// verifyAcked checks every key of every connection against its last
// acknowledged value: acked writes must survive, never-written keys
// must stay absent. It returns the number of keys that disagree.
func (e *kvEnv) verifyAcked(db *kv.DB) (int, error) {
	bad := 0
	buf := make([]byte, e.sh.valBytes)
	for _, o := range e.oracles {
		for r := range o.ver {
			v, found, err := db.Get(o.key(r))
			if err != nil {
				return bad, err
			}
			if !o.checkGet(r, found, v, buf) {
				bad++
			}
		}
	}
	return bad, nil
}

// runKV is one untraced KV run: repeated set-up, the timed closed
// loop over TCP, then crash, recovery and the acked-write audit.
func runKV(sh *kvShape, seed int64, d time.Duration) (*outcome, error) {
	out := newOutcome()
	var (
		env    *kvEnv
		setups []float64
	)
	for range sh.setups {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		// Every set-up starts cold, as in a fresh process: the previous
		// one's memory goes back to the OS outside the timed span, so
		// each set-up faults its pages in.
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if env, err = setupKV(sh); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	w0 := env.st.Device().Writes()
	res, start, elapsed, err := env.closedLoop(seed, sh.requestsPerConn(d), 3*d)
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	w1 := env.st.Device().Writes()
	db, recovers, err := env.crashRecover(sh.recoveries)
	if err != nil {
		return nil, fmt.Errorf("crash recovery: %w", err)
	}
	lost, err := env.verifyAcked(db)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}

	var (
		samples     []sample
		gets, batch []time.Duration
		userBytes   uint64
	)
	for _, r := range res {
		samples = append(samples, r.samples...)
		gets = append(gets, r.lats(true)...)
		batch = append(batch, r.lats(false)...)
		out.attempted += r.attempted
		out.failed += r.failed
		userBytes += r.userBytes
	}
	out.failed += lost
	win := splitWindows(samples, start, elapsed)

	out.gate("ops_per_s", win.rate(), "1/s")
	out.gate("p50_us", win.latency(0.50), "us")
	out.gate("p90_us", win.latency(0.90), "us")
	out.gate("recover_s", median(recovers), "s")
	out.gate("write_amp", ratio(float64((w1.Total()-w0.Total())*mem.LineSize), float64(userBytes)), "x")
	out.gate("setup_s", median(setups), "s")

	out.note("kv_ops_per_s", win.rate(), "1/s")
	out.note("p99_us", win.latency(0.99), "us")

	out.percentiles("get", micros(gets))
	out.percentiles("batch", micros(batch))
	out.note("fail_frac", ratio(float64(out.failed), float64(out.attempted)), "frac")
	out.note("lost_acked_keys", float64(lost), "count")
	out.note("requests", float64(len(samples)), "count")
	out.note("measured_s", elapsed.Seconds(), "s")
	out.note("log_fill", logFill(db), "frac")
	return out, nil
}

// logFill is the active log half's used share.
func logFill(db *kv.DB) float64 {
	s := db.Stats()
	return ratio(float64(s.LogBytes), float64(s.Stall.Capacity))
}

// percentiles notes the p50 and p99 of one request kind, each only
// when at least ten samples lie beyond it.
func (o *outcome) percentiles(kind string, us []float64) {
	o.note(kind+"_samples", float64(len(us)), "count")
	for _, q := range []float64{0.50, 0.99} {
		if hasTail(len(us), q) {
			o.note(kind+"_p"+strconv.Itoa(int(q*100))+"_us", quantile(us, q), "us")
		}
	}
}
