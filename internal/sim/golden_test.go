package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccnvm/internal/design"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestResultJSONGolden pins the modeled output behind `ccnvm-sim -json`:
// every registered design on one profile, encoded exactly as the CLI
// encodes it. The simulator's memo hit/miss counters are dropped before
// the comparison — they are observational (DESIGN.md, "Simulator
// performance") and move whenever a memo is added, removed or warmed
// differently — so a change to any timing, traffic or verification
// figure fails the test while a cache change does not.
func TestResultJSONGolden(t *testing.T) {
	const (
		bench = "gcc"
		ops   = 50000
	)
	var results []Result
	for _, d := range design.Names() {
		r, err := RunBenchmark(d, bench, ops, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	got := dropMemoKeys(t, results)

	path := filepath.Join("testdata", "result_json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestResultJSONGolden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ccnvm-sim -json output diverges from %s:\n--- got ---\n%s", path, got)
	}
}

// dropMemoKeys encodes results as indented JSON without the Sec.*Hits
// and Sec.*Misses memo counters. Numbers pass through as their original
// text, so no value is re-rounded.
func dropMemoKeys(t *testing.T, results []Result) []byte {
	t.Helper()
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc []map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc {
		sec := r["Sec"].(map[string]any)
		for k := range sec {
			if strings.HasSuffix(k, "Hits") || strings.HasSuffix(k, "Misses") {
				delete(sec, k)
			}
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
