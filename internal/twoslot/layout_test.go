package twoslot_test

import (
	"encoding/hex"
	"flag"
	"os"
	"testing"

	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestLayoutGolden pins the on-media bytes of one slot of every two-slot
// format: a codec or encoder change that moves, widens or reseals a
// field fails here.
func TestLayoutGolden(t *testing.T) {
	jr := recovery.JournalRecord{
		Active: true, Seq: 9, ConsistentRoot: "new", CrashLossWindow: true, Nwb: 41, Nretry: 41,
		Blocks: 7, Lines: 3, PendingValid: true, PendingAddr: mem.Addr(0x51000040),
	}
	for i := range jr.Root {
		jr.Root[i] = 9 + byte(i)
		jr.PendingLine[i] = ^byte(i)
	}
	for _, c := range []struct {
		golden string
		slot   []byte
	}{
		{"journal_slot", recovery.JournalFormat.Slot(jr)},
		{"remap_slot", nvm.RemapFormat.Slot(nvm.RemapRecord{Seq: 7, Total: 5, Entries: []nvm.RemapEntry{
			{Addr: 0x1000}, {Addr: 0x2040, Exempt: true}, {Addr: 0x3f80},
		}})},
		{"manifest_slot", kv.ManifestFormat.Slot(kv.ManifestRecord{Seq: 7, StartSeq: 123, Half: 1})},
	} {
		path := "testdata/" + c.golden + ".golden"
		got := hex.Dump(c.slot)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: on-media layout changed\n got:\n%s\nwant:\n%s", c.golden, got, want)
		}
	}
}
