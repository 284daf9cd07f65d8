package perf

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

func ledger(overall float64, designs map[string]float64) *Ledger {
	l := &Ledger{Schema: Schema, OpsPerSec: overall, Designs: map[string]DesignPerf{}}
	l.HostFingerprint()
	for d, ops := range designs {
		l.Designs[d] = DesignPerf{OpsPerSec: ops}
	}
	return l
}

func TestCompareSameHost(t *testing.T) {
	pinned := ledger(1000, map[string]float64{"a": 900, "b": 1100})
	if _, err := Compare(pinned, ledger(900, map[string]float64{"a": 800, "b": 1000})); err != nil {
		t.Fatalf("10%% slowdown must pass the 15%% gate: %v", err)
	}
	_, err := Compare(pinned, ledger(700, map[string]float64{"a": 900, "b": 1100}))
	if err == nil || !strings.Contains(err.Error(), "overall") {
		t.Fatalf("30%% overall slowdown must fail naming overall, got %v", err)
	}
	_, err = Compare(pinned, ledger(1000, map[string]float64{"a": 500, "b": 1100}))
	if err == nil || !strings.Contains(err.Error(), "a:") {
		t.Fatalf("per-design slowdown must fail naming the design, got %v", err)
	}
}

func TestCompareCrossHost(t *testing.T) {
	pinned := ledger(1000, map[string]float64{"a": 1000, "b": 1000})
	pinned.CPUs++ // force the cross-host relative path
	// A uniformly 10x faster host must pass: relative standing unchanged.
	if _, err := Compare(pinned, ledger(10000, map[string]float64{"a": 10000, "b": 10000})); err != nil {
		t.Fatalf("uniform speedup must pass the relative gate: %v", err)
	}
	// One design collapsing relative to its peer must fail even though
	// its absolute ops/sec went up.
	_, err := Compare(pinned, ledger(10000, map[string]float64{"a": 2000, "b": 20000}))
	if err == nil || !strings.Contains(err.Error(), "relative") {
		t.Fatalf("relative collapse must fail, got %v", err)
	}
}

// TestCompareCrossHostMessage pins the relative gate's wording: the
// normalised values are ratios to the run's geometric mean, printed with
// three decimals and labelled as such, never as ops/sec.
func TestCompareCrossHostMessage(t *testing.T) {
	pinned := ledger(1000, map[string]float64{"a": 1000, "b": 1000})
	pinned.CPUs++
	_, err := Compare(pinned, ledger(10000, map[string]float64{"a": 2000, "b": 20000}))
	if err == nil {
		t.Fatal("relative collapse must fail")
	}
	const want = "a (relative): 1.000 -> 0.316 x geomean (-68.4%)"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("message %q lacks %q", err, want)
	}
	if strings.Contains(err.Error(), "ops/sec") {
		t.Fatalf("relative message %q mislabels ratios as ops/sec", err)
	}
}

// TestCompareReportsSkips pins that the gate names every row it could
// not compare: across hosts the absolute overall, KV and churn rows; on
// one host a row whose run shape differs, a design the fresh run did
// not measure and a row with nothing pinned. A self-compare skips
// nothing.
func TestCompareReportsSkips(t *testing.T) {
	withRows := func(l *Ledger) *Ledger {
		l.KV = &KVPerf{Conns: 8, OpsPerConn: 4, Batch: 4, OpsPerSec: 100}
		l.Churn = &ChurnPerf{Design: "ccnvm", Capacity: 1 << 20, ValBytes: 64, Keys: 8, Multiple: 2, OpsPerSec: 100}
		return l
	}
	rows := func(skipped []Skip) map[string]string {
		m := map[string]string{}
		for _, s := range skipped {
			m[s.Row] = s.Reason
		}
		return m
	}
	pinned := withRows(ledger(1000, map[string]float64{"a": 1000, "b": 1000}))
	if skipped, err := Compare(pinned, pinned); err != nil || len(skipped) != 0 {
		t.Fatalf("self-compare: skipped %v, err %v", skipped, err)
	}

	t.Run("cross-host", func(t *testing.T) {
		fresh := withRows(ledger(10, map[string]float64{"a": 10, "b": 10}))
		fresh.CPUs = pinned.CPUs + 1
		fresh.KV.OpsPerSec, fresh.Churn.OpsPerSec = 1, 1 // would fail if compared
		skipped, err := Compare(pinned, fresh)
		if err != nil {
			t.Fatalf("cross-host KV/churn rows were gated: %v", err)
		}
		got := rows(skipped)
		for _, row := range []string{"overall", "kv", "churn"} {
			if !strings.Contains(got[row], "host fingerprint differs") {
				t.Errorf("%s: reason %q, want the host fingerprint", row, got[row])
			}
		}
		if len(got) != 3 {
			t.Errorf("skipped %v, want exactly overall, kv and churn", skipped)
		}
	})

	t.Run("same-host", func(t *testing.T) {
		fresh := withRows(ledger(1000, map[string]float64{"a": 1000}))
		fresh.KV.Batch++
		fresh.Churn.Multiple++
		fresh.KV.OpsPerSec, fresh.Churn.OpsPerSec = 1, 1 // would fail if compared
		skipped, err := Compare(pinned, fresh)
		if err != nil {
			t.Fatalf("shape-mismatched rows were gated: %v", err)
		}
		got := rows(skipped)
		want := map[string]string{
			"kv":    "run shape differs (pinned conns=8 ops/conn=4 batch=4; fresh conns=8 ops/conn=4 batch=5)",
			"churn": "run shape differs (pinned design=ccnvm capacity=1048576 val=64 keys=8 multiple=2; fresh design=ccnvm capacity=1048576 val=64 keys=8 multiple=3)",
			"b":     "not measured in the fresh run",
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("skipped %v, want %v", got, want)
		}
		if skipped[0].Row != "b" {
			t.Errorf("skips not sorted by row: %v", skipped)
		}
	})

	t.Run("no-pinned-row", func(t *testing.T) {
		bare := ledger(1000, map[string]float64{"a": 1000, "b": 1000})
		skipped, err := Compare(bare, pinned)
		if err != nil {
			t.Fatal(err)
		}
		got := rows(skipped)
		if got["kv"] != "no pinned row" || got["churn"] != "no pinned row" || len(got) != 2 {
			t.Errorf("skipped %v, want kv and churn without a pinned row", skipped)
		}
	})
}

func TestCompareSchemaMismatch(t *testing.T) {
	pinned := ledger(1000, nil)
	pinned.Schema = Schema + 1
	if _, err := Compare(pinned, ledger(1000, nil)); err == nil {
		t.Fatal("schema mismatch must refuse comparison")
	}
}

func TestSaveLoadNewest(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "notes.json"} {
		l := ledger(float64(len(name)), nil)
		if err := l.Save(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Newest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_10.json" {
		t.Fatalf("Newest picked %s, want BENCH_10.json (numeric, not lexical, order)", p)
	}
	if _, err := Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := Newest(t.TempDir()); err == nil {
		t.Fatal("Newest on an empty dir must error")
	}
}

// TestMeasureSmoke runs a miniature measurement end to end: one design,
// one benchmark, a small kernel. It pins the ledger invariants the
// Makefile gate relies on rather than any particular speed.
func TestMeasureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement loop")
	}
	l, err := Measure(MeasureOptions{
		Ops:          2000,
		Benchmarks:   trace.Benchmarks()[:1],
		Designs:      sim.Designs()[:1],
		Workers:      []int{1, 2},
		KernelLeaves: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Schema != Schema || l.CPUs < 1 || l.GoVersion == "" {
		t.Fatalf("bad fingerprint: %+v", l)
	}
	if l.SimOps != 2000 || l.OpsPerSec <= 0 || l.WallSeconds <= 0 {
		t.Fatalf("bad throughput accounting: %+v", l)
	}
	if len(l.Designs) != 1 {
		t.Fatalf("want 1 design entry, got %d", len(l.Designs))
	}
	if l.Memo.Overall <= 0 || l.Memo.Overall > 1 {
		t.Fatalf("memo overall ratio out of range: %v", l.Memo.Overall)
	}
	if len(l.Parallel) != 2 || l.Parallel[0].Workers != 1 || l.Parallel[0].Speedup != 1 {
		t.Fatalf("bad parallel points: %+v", l.Parallel)
	}
	// The gate must pass against itself.
	if _, err := Compare(l, l); err != nil {
		t.Fatal(err)
	}
}
