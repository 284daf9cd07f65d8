package nvm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/twoslot"
)

func spareDevice(t testing.TB, m *FaultModel) *Device {
	t.Helper()
	d := device(t)
	d.SetFaultModel(m)
	return d
}

func TestRemapRecordRoundTrip(t *testing.T) {
	rec := RemapRecord{
		Seq:   7,
		Total: 5,
		Entries: []RemapEntry{
			{Addr: 0x1000},
			{Addr: 0x2040, Exempt: true},
			{Addr: 0x3f80},
		},
	}
	b := RemapFormat.Slot(rec)
	if len(b) != RemapSlotLen {
		t.Fatalf("slot length %d, want %d", len(b), RemapSlotLen)
	}
	got, st := RemapFormat.Classify(b)
	if st != twoslot.Intact {
		t.Fatal("round trip failed to decode")
	}
	if got.Seq != rec.Seq || got.Total != rec.Total || !reflect.DeepEqual(got.Entries, rec.Entries) {
		t.Fatalf("round trip changed the record: %+v -> %+v", rec, got)
	}
}

func TestDecodeRemapSlotRejectsDamage(t *testing.T) {
	rec := RemapRecord{Seq: 3, Total: 4, Entries: []RemapEntry{{Addr: 0x40}}}
	good := RemapFormat.Slot(rec)
	for _, off := range []int{0, 4, 8, 16, 18, remapHeaderLen, remapChecksumOff, remapChecksumOff + 7} {
		b := append([]byte(nil), good...)
		b[off] ^= 0xff
		if _, st := RemapFormat.Classify(b); st != twoslot.Torn {
			t.Errorf("slot with byte %d flipped is not torn", off)
		}
	}
	if _, st := RemapFormat.Classify(good[:RemapSlotLen-1]); st != twoslot.Torn {
		t.Error("decode accepted a truncated slot")
	}
	// An entry count above the provisioned pool size is structurally
	// impossible on a real device; a slot claiming it is damage even
	// when resealed, so the structural check (not the checksum) rejects
	// it.
	over := RemapFormat.Slot(RemapRecord{Seq: 1, Total: 2, Entries: []RemapEntry{{Addr: 0x40}, {Addr: 0x80}}})
	over[16] = 3
	twoslot.Seal(over, remapMagic, remapChecksumOff)
	if _, st := RemapFormat.Classify(over); st != twoslot.Torn {
		t.Error("decode accepted count > total")
	}
}

func TestDeviceSpareAccounting(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 2, SpareLines: 2})
	var l mem.Line
	for i := 0; i < 16; i++ {
		l[0] = byte(i)
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	if len(stuck) != 2 {
		t.Fatalf("injected %d stuck lines, want 2", len(stuck))
	}

	// Healing a stuck line by rewrite consumes one spare and commits.
	d.Write(stuck[0], l)
	s := d.SpareStats()
	if s.Used != 1 || s.Remaps != 1 || s.Refused != 0 {
		t.Fatalf("after first heal: %+v", s)
	}
	if d.ReadFails(stuck[0], 0) {
		t.Fatal("healed line still fails reads")
	}

	// Re-healing the same line is free: the spare is already assigned.
	d.Write(stuck[0], l)
	if s := d.SpareStats(); s.Used != 1 {
		t.Fatalf("re-heal consumed another spare: %+v", s)
	}

	// An exempt upgrade re-uses the spare but commits a new record.
	before := d.SpareStats().Remaps
	if err := d.Remap(stuck[0], true); err != nil {
		t.Fatalf("exempt upgrade: %v", err)
	}
	s = d.SpareStats()
	if s.Used != 1 || s.Remaps != before+1 {
		t.Fatalf("after exempt upgrade: %+v", s)
	}

	// Second stuck line takes the last spare; the pool is then empty.
	d.Write(stuck[1], l)
	if s := d.SpareStats(); s.Used != 2 || s.Remaining() != 0 {
		t.Fatalf("after second heal: %+v", s)
	}

	// With the pool empty a fresh remap is refused with the typed error
	// and nothing changes.
	var ex *SpareExhaustedError
	if err := d.Remap(0x3000, false); !errors.As(err, &ex) {
		t.Fatalf("exhausted remap returned %v, want *SpareExhaustedError", err)
	}
	if ex.Total != 2 || ex.Addr != 0x3000 {
		t.Fatalf("error carries %+v", ex)
	}
	if s := d.SpareStats(); s.Used != 2 || s.Refused != 1 {
		t.Fatalf("after refused remap: %+v", s)
	}
}

// TestExhaustedHealLeavesLineStuck pins the lost-but-detected contract:
// once the pool is empty a rewrite of a stuck line stores the content
// but cannot heal the cells, so the loss stays visible to reads instead
// of silently disappearing.
func TestExhaustedHealLeavesLineStuck(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 5, StuckLines: 2, SpareLines: 1})
	var l mem.Line
	for i := 0; i < 16; i++ {
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	if len(stuck) != 2 {
		t.Fatalf("injected %d stuck lines, want 2", len(stuck))
	}
	d.Write(stuck[0], l) // takes the only spare
	d.Write(stuck[1], l) // pool empty: content lands on dead cells
	if !d.ReadFails(stuck[1], 9) {
		t.Fatal("exhausted heal silently cleared the stuck line")
	}
	if got := d.StuckLines(); len(got) != 1 || got[0] != stuck[1] {
		t.Fatalf("stuck set = %v, want [%#x]", got, uint64(stuck[1]))
	}
	if s := d.SpareStats(); s.Refused == 0 {
		t.Fatalf("refusal not counted: %+v", s)
	}
}

func TestSparePoolCappedAtRecordCapacity(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 1, StuckLines: 1, SpareLines: RemapMaxEntries + 100})
	if s := d.SpareStats(); s.Total != RemapMaxEntries {
		t.Fatalf("pool total %d, want cap %d", s.Total, RemapMaxEntries)
	}
}

func TestSpareSnapshotRestoreRoundTrip(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 2, SpareLines: 4})
	var l mem.Line
	for i := 0; i < 16; i++ {
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	d.Write(stuck[0], l)
	if err := d.Remap(stuck[1], true); err != nil {
		t.Fatal(err)
	}
	want := d.RemapEntries()
	img := d.Snapshot()
	if len(img.RemapTable) != RemapTableLen {
		t.Fatalf("snapshot table is %d bytes", len(img.RemapTable))
	}

	d2 := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 2, SpareLines: 4})
	d2.Restore(img)
	if got := d2.RemapEntries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore lost mappings: %v vs %v", got, want)
	}
	s := d2.SpareStats()
	if s.Total != 4 || s.Used != 2 || s.Remaps != 0 {
		t.Fatalf("restored stats = %+v (Remaps counts this boot)", s)
	}
	// The exempt flag must survive: the restored line takes no weak-line
	// decisions.
	if d2.LineWeak(stuck[1]) {
		t.Fatal("restored exempt line presents as weak")
	}
}

// TestSabotagedCommitRollsBackOnRestore pins what the torture harness's
// break-remap-commit self-test relies on: a consumed spare whose record
// write was dropped does not survive a reboot — the table is the single
// source of truth.
func TestSabotagedCommitRollsBackOnRestore(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 1, SpareLines: 2})
	var l mem.Line
	for i := 0; i < 16; i++ {
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	d.SabotageDropRemapCommit()
	d.Write(stuck[0], l)
	if s := d.SpareStats(); s.Used != 1 {
		t.Fatalf("sabotaged heal did not consume in memory: %+v", s)
	}
	d2 := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 1, SpareLines: 2})
	d2.Restore(d.Snapshot())
	if s := d2.SpareStats(); s.Used != 0 {
		t.Fatalf("dropped commit survived the reboot: %+v", s)
	}
}

// TestWriteBatchMatchesSerialWrite is the batch/serial parity contract:
// WriteBatch is documented as equivalent to calling Write in index
// order, and that must hold for every side channel — region counters,
// wear, stuck-line healing, spare-pool accounting, the persisted remap
// table and the stored bytes — not just for the happy-path contents.
func TestWriteBatchMatchesSerialWrite(t *testing.T) {
	model := func() *FaultModel {
		return &FaultModel{Seed: 9, WeakLineRate: 0.2, StuckLines: 3, SpareLines: 2}
	}
	serial := spareDevice(t, model())
	batch := spareDevice(t, model())

	// Identical pre-state: written lines, then the deterministic stuck
	// injection (equal seeds and equal written sets fail identically).
	seed := func(d *Device) []mem.Addr {
		var l mem.Line
		for i := 0; i < 24; i++ {
			l[0] = byte(i)
			d.Write(mem.Addr(i)*mem.LineSize, l)
		}
		return d.InjectStuckLines()
	}
	s1, s2 := seed(serial), seed(batch)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stuck injection diverged before the test: %v vs %v", s1, s2)
	}

	// A mixed sequence: data rewrites (healing all three stuck lines,
	// exhausting the two spares), metadata regions, repeats for wear,
	// and one out-of-range address for error parity.
	lay := serial.Layout()
	addrs := []mem.Addr{
		s1[0], s1[1], 0, 3 * mem.LineSize, s1[2],
		lay.CounterBase, lay.HMACBase, lay.NodeAddr(1, 0),
		3 * mem.LineSize, 3 * mem.LineSize,
		mem.Addr(lay.TotalBytes()), // out of range
		s1[0],                      // re-heal, free
	}
	lines := make([]mem.Line, len(addrs))
	for i := range lines {
		lines[i][0] = byte(0x80 + i)
	}

	var serialErrs []error
	for i, a := range addrs {
		if err := serial.Write(a, lines[i]); err != nil {
			serialErrs = append(serialErrs, err)
		}
	}
	// Replay through WriteBatch in uneven chunks and varying workers.
	var batchErrs []error
	for i := 0; i < len(addrs); {
		n := 1 + (i % 4)
		if i+n > len(addrs) {
			n = len(addrs) - i
		}
		batchErrs = append(batchErrs, batch.WriteBatch(addrs[i:i+n], lines[i:i+n], 1+i%3)...)
		i += n
	}

	if len(serialErrs) != len(batchErrs) {
		t.Fatalf("error parity: serial %v vs batch %v", serialErrs, batchErrs)
	}
	for i := range serialErrs {
		if serialErrs[i].Error() != batchErrs[i].Error() {
			t.Fatalf("error %d differs: %v vs %v", i, serialErrs[i], batchErrs[i])
		}
	}
	if sw, bw := serial.Writes(), batch.Writes(); sw != bw {
		t.Fatalf("write breakdowns diverge: %v vs %v", sw, bw)
	}
	sa, swear := serial.MaxWear()
	ba, bwear := batch.MaxWear()
	if sa != ba || swear != bwear {
		t.Fatalf("wear diverges: (%#x,%d) vs (%#x,%d)", uint64(sa), swear, uint64(ba), bwear)
	}
	if !reflect.DeepEqual(serial.StuckLines(), batch.StuckLines()) {
		t.Fatalf("stuck sets diverge: %v vs %v", serial.StuckLines(), batch.StuckLines())
	}
	if ss, bs := serial.SpareStats(), batch.SpareStats(); ss != bs {
		t.Fatalf("spare accounting diverges: %+v vs %+v", ss, bs)
	}
	if !reflect.DeepEqual(serial.RemapEntries(), batch.RemapEntries()) {
		t.Fatalf("remap entries diverge: %v vs %v", serial.RemapEntries(), batch.RemapEntries())
	}
	si, bi := serial.Snapshot(), batch.Snapshot()
	if !si.Store.Equal(bi.Store) {
		t.Fatal("stored contents diverge")
	}
	if !bytes.Equal(si.RemapTable, bi.RemapTable) {
		t.Fatal("persisted remap tables diverge")
	}
}

// TestTornFirstRemapCommitIsReported pins the all-zero emptiness rule at
// the record layer: a first commit into the never-written slot that
// landed every word but the magic is torn, not empty, and repair
// restores the slot.
func TestTornFirstRemapCommitIsReported(t *testing.T) {
	table := make([]byte, RemapTableLen)
	copy(table, RemapFormat.Slot(RemapRecord{Total: 3}))
	next := RemapFormat.Slot(RemapRecord{Seq: 1, Total: 3, Entries: []RemapEntry{{Addr: 0x40}}})
	copy(table[RemapSlotLen+8:RemapSlotLen+64], next[8:64])
	if v := RemapFormat.Repair(table); !v.OK || v.Torn != [2]bool{false, true} || v.Rec.Seq != 0 {
		t.Fatalf("load: %+v, want the format record over a torn slot 1", v)
	}
	if v := RemapFormat.Load(table); !v.OK || v.AnyTorn() || v.Rec.Seq != 0 || v.Rec.Total != 3 {
		t.Fatalf("after repair: %+v", v)
	}
}
