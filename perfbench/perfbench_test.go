package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-tests check
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRef pins a reference for the tiny sim shape into a temp file.
func tinyRef(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sim_reference.txt")
	sh := tinySim(simSuite)
	if err := pinSimRef(&sh, path); err != nil {
		t.Fatal(err)
	}
	return path
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestTinyRunsEmitEveryMetric runs every workload at the tiny shape,
// untraced and traced, and checks that the result carries exactly the
// metrics BENCHMARK.json names, with its units, legal names and numbers.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	ref := tinyRef(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			out, err := run(w.Name, 1, 300*time.Millisecond, traced, true, ref)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, out.failed, out.attempted, out.problems)
			}
			if got, exp := sortedNames(out.gated), sortedKeys(want); !slices.Equal(got, exp) {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w.Name, traced, got, exp)
			}
			for name, m := range out.gated {
				if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s: illegal metric name or unit %q %q", w.Name, name, m.Unit)
				}
				if want[name] != "" && m.Unit != want[name] {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.Name, name, m.Unit, want[name])
				}
				if m.Value != m.Value {
					t.Errorf("%s: %s is NaN", w.Name, name)
				}
			}
		}
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// TestSabotagedSimReferenceFails corrupts one cell of the pinned
// reference: the run must count the mismatch and report incorrect.
func TestSabotagedSimReferenceFails(t *testing.T) {
	path := tinyRef(t)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	fs := strings.Fields(lines[1]) // first cell; line 0 is the header
	fs[3] += "1"                   // its simulated cycle count
	lines[1] = strings.Join(fs, " ")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run("sim-suite", 1, 300*time.Millisecond, false, true, path)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Fatal("a corrupted sim reference went unnoticed")
	}
	if emit(os.Stdout, out) {
		t.Fatal("emit reported a failing run as correct")
	}
}

// TestSabotagedExpectedValueFails corrupts the clients' record of one
// acknowledged write: both the live get check and the post-recovery
// audit must count it.
func TestSabotagedExpectedValueFails(t *testing.T) {
	sh := tinyKV(kvShapes["kv-churn"])
	env, err := setupKV(&sh)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := env.closedLoop(1, 50, time.Minute); err != nil {
		t.Fatal(err)
	}
	o := env.oracles[0]
	o.ver[0]++ // expect a version that was never written

	res, err := env.driveConn(func(req *kvRequest) *kvOracle {
		req.get, req.keys = true, append(req.keys[:0], 0)
		return o
	}, new(atomic.Bool), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Errorf("live get of a sabotaged key: %d failures, want 1", res.failed)
	}

	db, _, err := env.crashRecover(1)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := env.verifyAcked(db)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Errorf("audit found %d wrong keys, want 1", bad)
	}
}

// TestTracedCountsRepeat runs each traced workload twice: the counts
// taken from the single-client replay must be identical.
func TestTracedCountsRepeat(t *testing.T) {
	ref := tinyRef(t)
	counts := []string{
		"kv.compact_passes", "kv.reclaimed_lines",
		"engine.hmac_per_batch", "engine.aes_per_batch", "engine.hmac_per_get", "engine.aes_per_get",
		"engine.drain_lines_per_drain", "nvm.data_lines_per_batch", "nvm.meta_lines_per_batch",
		"seccrypto.pad_hit", "seccrypto.data_hmac_hit", "seccrypto.node_hmac_hit",
	}
	for _, w := range []string{"kv-write", "kv-read", "kv-churn", "sim-suite"} {
		var first map[string]metric
		for range 2 {
			out, err := run(w, 7, time.Second, true, true, ref)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = out.gated
				continue
			}
			for _, c := range counts {
				if a, b := first[c], out.gated[c]; a != b {
					t.Errorf("%s: %s differs between traced runs: %v vs %v", w, c, a.Value, b.Value)
				}
			}
		}
	}
}
