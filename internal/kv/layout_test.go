package kv

import (
	"encoding/hex"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestLayoutGolden pins the on-media bytes of a sealed frame header: an
// encoder refactor that moves, widens or reseals a field fails here.
// The manifest slot's golden lives with the two-slot codec's.
func TestLayoutGolden(t *testing.T) {
	hdr := encodeHeader(42, 3, 200)
	sealHeader(&hdr, 0x0123456789abcdef)
	checkLayoutGolden(t, "testdata/frame_header.golden", hdr[:])
}

// checkLayoutGolden compares a hex dump of b with the golden file at
// path (rewritten under -update).
func checkLayoutGolden(t *testing.T, path string, b []byte) {
	t.Helper()
	got := hex.Dump(b)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s: on-media layout changed\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
