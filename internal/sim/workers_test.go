package sim

import (
	"reflect"
	"runtime"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/trace"
)

// TestWorkersBitIdenticalFig5 is the parallel pipeline's contract test:
// every registered design, driven through every Figure 5 benchmark,
// must produce a byte-identical Result with Workers=1 and Workers=N.
// The only schedule-dependent exemption is the crypto memo hit/miss
// counters — parallel workers answer from forked memo tables, so the
// same crypto work can hit or miss depending on which worker ran it
// (memoization never changes an answer, only whether it was cached).
// Everything timing- and correctness-bearing — cycles, IPC, NVM
// traffic, drains, violations, wear — must not move. Run under -race
// (the Makefile race target covers this package) it doubles as the
// data-race proof for the sharded verify/update/drain paths.
func TestWorkersBitIdenticalFig5(t *testing.T) {
	const ops = 6000
	workers := runtime.NumCPU()
	if workers < 4 {
		// A 1-CPU host would make Workers=NumCPU vacuously serial; force
		// real goroutine fan-out regardless of host size.
		workers = 4
	}
	for _, d := range design.Names() {
		for _, b := range trace.Benchmarks() {
			serial, err := RunBenchmark(d, b, ops, 1, Config{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunBenchmark(d, b, ops, 1, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scrubMemo(serial), scrubMemo(par)) {
				t.Errorf("%s/%s: Workers=%d diverged from serial\nserial: %+v\nparallel: %+v",
					d, b, workers, scrubMemo(serial), scrubMemo(par))
			}
		}
	}
}

// scrubMemo zeroes the schedule-dependent memo counters (and nothing
// else) so the rest of the Result can be compared bit-for-bit.
func scrubMemo(r Result) Result {
	r.Sec.PadCacheHits, r.Sec.PadCacheMisses = 0, 0
	r.Sec.DataMemoHits, r.Sec.DataMemoMisses = 0, 0
	r.Sec.NodeMemoHits, r.Sec.NodeMemoMisses = 0, 0
	return r
}
