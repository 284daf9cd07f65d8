// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus throughput benchmarks of the simulator itself. The figure
// benchmarks run reduced-size sweeps per iteration and report the
// figure's key series as custom metrics (normalized to w/o CC, exactly
// like the paper); run cmd/ccnvm-bench for the full-size tables.
package ccnvm_test

import (
	"fmt"
	"testing"

	"ccnvm"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// figOptions keeps the per-iteration cost of the figure benchmarks
// manageable while preserving the figures' shapes: the three most
// write-intensive stand-ins at a trace length long past the LLC
// warm-up, so write-back traffic (the figures' subject) is realistic.
// Run cmd/ccnvm-bench -ops 300000 for the full eight-workload tables.
func figOptions() ccnvm.EvalOptions {
	return ccnvm.EvalOptions{Ops: 60000, Benchmarks: []string{"lbm", "libquantum", "gcc"}}
}

// BenchmarkFig5aIPC regenerates Figure 5(a): system IPC of SC, Osiris
// Plus, cc-NVM w/o DS and cc-NVM across the eight SPEC stand-ins,
// normalized to w/o CC. Reported metrics are the figure's "average"
// bars.
func BenchmarkFig5aIPC(b *testing.B) {
	var f *ccnvm.Fig5
	for i := 0; i < b.N; i++ {
		var err error
		f, err = ccnvm.RunFig5(figOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range []string{"sc", "osiris", "ccnvm-wods", "ccnvm"} {
		b.ReportMetric(f.AvgNormIPC[d], d+"_ipc")
	}
}

// BenchmarkFig5bWrites regenerates Figure 5(b): NVM write traffic
// normalized to w/o CC.
func BenchmarkFig5bWrites(b *testing.B) {
	var f *ccnvm.Fig5
	for i := 0; i < b.N; i++ {
		var err error
		f, err = ccnvm.RunFig5(figOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range []string{"sc", "osiris", "ccnvm-wods", "ccnvm"} {
		b.ReportMetric(f.AvgNormWrite[d], d+"_wr")
	}
}

// BenchmarkTextSCOverhead regenerates the §2.3 motivation numbers: the
// naive strict-consistency approach's performance loss and write
// amplification versus the baseline without crash consistency (paper:
// 41.4% and 5.5x).
func BenchmarkTextSCOverhead(b *testing.B) {
	var h ccnvm.Headline
	for i := 0; i < b.N; i++ {
		f, err := ccnvm.RunFig5(figOptions())
		if err != nil {
			b.Fatal(err)
		}
		h = f.Headline()
	}
	b.ReportMetric(h.SCIPCDrop*100, "sc_ipc_loss_pct")
	b.ReportMetric(h.SCWriteFactor, "sc_write_factor")
}

// BenchmarkHeadlineClaims regenerates the abstract's summary: cc-NVM
// vs Osiris Plus IPC gain (paper: 20.4%) and extra write traffic
// (paper: 29.6%), plus cc-NVM's loss vs the baseline (18.7% / 39%).
func BenchmarkHeadlineClaims(b *testing.B) {
	var h ccnvm.Headline
	for i := 0; i < b.N; i++ {
		f, err := ccnvm.RunFig5(figOptions())
		if err != nil {
			b.Fatal(err)
		}
		h = f.Headline()
	}
	b.ReportMetric(h.CCNVMvsOsirisUp*100, "ccnvm_vs_osiris_ipc_pct")
	b.ReportMetric(h.CCNVMExtraWr*100, "ccnvm_vs_osiris_wr_pct")
	b.ReportMetric(h.CCNVMIPCDrop*100, "ccnvm_ipc_loss_pct")
	b.ReportMetric(h.CCNVMWriteOver*100, "ccnvm_wr_over_pct")
}

// BenchmarkFig6aUpdateLimit regenerates Figure 6(a): sensitivity of
// cc-NVM's IPC and write traffic to the update-times limit N
// (4..64, M=64). Reported metrics are cc-NVM's endpoints.
func BenchmarkFig6aUpdateLimit(b *testing.B) {
	o := figOptions()
	o.Benchmarks = []string{"lbm"}
	var f *ccnvm.Fig6
	for i := 0; i < b.N; i++ {
		var err error
		f, err = ccnvm.RunFig6a(o, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := f.Points["ccnvm"]
	b.ReportMetric(pts[0].NormWrite, "wr_at_n4")
	b.ReportMetric(pts[len(pts)-1].NormWrite, "wr_at_n64")
	b.ReportMetric(pts[0].NormIPC, "ipc_at_n4")
	b.ReportMetric(pts[len(pts)-1].NormIPC, "ipc_at_n64")
}

// BenchmarkFig6bQueueEntries regenerates Figure 6(b): sensitivity to
// the dirty address queue entries M (32..64, N=16).
func BenchmarkFig6bQueueEntries(b *testing.B) {
	o := figOptions()
	o.Benchmarks = []string{"lbm"}
	var f *ccnvm.Fig6
	for i := 0; i < b.N; i++ {
		var err error
		f, err = ccnvm.RunFig6b(o, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := f.Points["ccnvm"]
	b.ReportMetric(pts[0].NormIPC, "ipc_at_m32")
	b.ReportMetric(pts[len(pts)-1].NormIPC, "ipc_at_m64")
	b.ReportMetric(pts[0].NormWrite, "wr_at_m32")
	b.ReportMetric(pts[len(pts)-1].NormWrite, "wr_at_m64")
}

// BenchmarkSimThroughput measures the simulator's own speed: simulated
// memory operations per wall-clock second for each design.
func BenchmarkSimThroughput(b *testing.B) {
	for _, d := range ccnvm.Designs() {
		b.Run(d, func(b *testing.B) {
			p, err := ccnvm.ProfileByName("gcc")
			if err != nil {
				b.Fatal(err)
			}
			g, err := ccnvm.NewGenerator(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			ops := ccnvm.CollectOps(g, 20000)
			var r ccnvm.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := ccnvm.NewMachine(ccnvm.Config{Design: d})
				if err != nil {
					b.Fatal(err)
				}
				r = m.Run("gcc", ops)
			}
			b.ReportMetric(float64(len(ops)*b.N)/b.Elapsed().Seconds(), "simops/s")
			b.ReportMetric(r.Sec.MemoHitRatio(), "memohit")
		})
	}
}

// BenchmarkReadBlock reports the cost of one verified store.Read, split
// by whether the block was ever written: a never-written block is
// checked against the default slot of its never-written HMAC line, a
// written one against the HMAC line in NVM. Reads cycle over readLines
// blocks, each never-written one under its own HMAC line, so neither
// case is served from a warm memo.
func BenchmarkReadBlock(b *testing.B) {
	const readLines = 1 << 14
	opts := store.Options{Design: "ccnvm", Capacity: 64 << 20}
	run := func(b *testing.B, stride mem.Addr, write bool) {
		st, err := store.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if write {
			var l mem.Line
			for i := 0; i < readLines; i++ {
				l[0], l[1], l[63] = byte(i), byte(i>>8), 0xa5
				if err := st.Write(mem.Addr(i)*stride, l); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.FlushEpoch(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Read(mem.Addr(i%readLines) * stride); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("never-written", func(b *testing.B) { run(b, mem.LineSize*mem.HMACsPerLine, false) })
	b.Run("written", func(b *testing.B) { run(b, mem.LineSize, true) })
}

// BenchmarkRecovery measures the four-step crash recovery over images
// of growing footprint, and the crash-to-serving boot of a KV image:
// store.Reboot (recover, apply, reopen) plus kv.Open (log scan and the
// reclaim of the inactive half), the path a restarted daemon takes.
func BenchmarkRecovery(b *testing.B) {
	b.Run("boot", benchmarkBoot)
	for _, n := range []int{20000, 60000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			p, err := ccnvm.ProfileByName("lbm")
			if err != nil {
				b.Fatal(err)
			}
			g, err := ccnvm.NewGenerator(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			ops := ccnvm.CollectOps(g, n)
			m, err := ccnvm.NewMachine(ccnvm.Config{Design: "ccnvm"})
			if err != nil {
				b.Fatal(err)
			}
			_, img := m.RunWithCrash("lbm", ops, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := ccnvm.Recover(img)
				if !rep.Clean() {
					b.Fatal("clean image flagged")
				}
			}
			b.ReportMetric(float64(img.Image.Store.Len()), "nvm_lines")
		})
	}
}

// bootKeys sizes the boot benchmark's image: this many 128 B values,
// written as acknowledged 4-put batches before the power fails.
const bootKeys = 20000

// benchmarkBoot boots a fixed-size KV crash image to a serving kv.DB.
// Each iteration recovers its own copy of the image; the copy is a
// copy-on-write clone, so it costs a few map headers, not the image.
func benchmarkBoot(b *testing.B) {
	opts := store.Options{
		Design:   "ccnvm",
		Capacity: 64 << 20,
		Params:   engine.Params{UpdateLimit: 16, QueueEntries: 64},
	}
	st, err := store.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 128)
	for i := 0; i < bootKeys; i += 4 {
		ops := make([]kv.Op, 4)
		for j := range ops {
			val[0], val[1] = byte(i+j), byte((i+j)>>8)
			ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(fmt.Sprintf("key-%06d", i+j)), Val: append([]byte(nil), val...)}
		}
		if err := db.Batch(ops); err != nil {
			b.Fatal(err)
		}
	}
	img := db.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := *img
		cp.Image = img.Image.Clone()
		cp.TCB = img.TCB.CloneExt()
		st, _, err := store.Reboot(&cp, opts)
		if err != nil {
			b.Fatal(err)
		}
		db, err := kv.Open(st, kv.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if got := db.Stats().Keys; got != bootKeys {
			b.Fatalf("booted namespace holds %d keys, want %d", got, bootKeys)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(img.Image.Store.Len()), "nvm_lines")
}

// BenchmarkRecoveryMatrix regenerates the §4.4 capability table: every
// design crashed under every attack, recovered and judged. The reported
// metric is the fraction of attack scenarios cc-NVM localizes (paper:
// all but the bounded DS replay window, which it still detects).
func BenchmarkRecoveryMatrix(b *testing.B) {
	var m *ccnvm.RecoveryMatrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = ccnvm.RunRecoveryMatrix(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	located := 0
	for _, v := range m.Verdicts["ccnvm"] {
		if v.String() == "LOCATED" {
			located++
		}
	}
	b.ReportMetric(float64(located), "ccnvm_located")
}

// BenchmarkLifetime regenerates the §5.2 endurance comparison on the
// most write-intensive workload; the metric is SC's hottest-line wear
// relative to cc-NVM's (the lifetime penalty of strict consistency).
func BenchmarkLifetime(b *testing.B) {
	var lt *ccnvm.Lifetime
	for i := 0; i < b.N; i++ {
		var err error
		lt, err = ccnvm.RunLifetime(ccnvm.EvalOptions{Ops: 30000}, "lbm")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lt.MaxWear["sc"])/float64(lt.MaxWear["ccnvm"]), "sc_vs_ccnvm_hotline")
}
