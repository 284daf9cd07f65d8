package twoslot_test

import (
	"bytes"
	"reflect"
	"testing"

	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/twoslot"
)

func journalRec(seq uint64) recovery.JournalRecord {
	r := recovery.JournalRecord{
		Active: seq%2 == 1, Seq: seq, ConsistentRoot: "new", Nwb: 40 + seq, Nretry: 40,
		Blocks: int(seq), Lines: 3, PendingValid: true, PendingAddr: mem.Addr(seq) * mem.LineSize,
	}
	for i := range r.Root {
		r.Root[i] = byte(seq) * byte(i)
		r.PendingLine[i] = ^byte(seq) + byte(i)
	}
	return r
}

func remapRec(seq uint64) nvm.RemapRecord {
	r := nvm.RemapRecord{Seq: seq, Total: 8}
	for i := uint64(0); i < seq; i++ {
		r.Entries = append(r.Entries, nvm.RemapEntry{Addr: mem.Addr(i+1) * 0x1000, Exempt: i%2 == 1})
	}
	return r
}

func manifestRec(seq uint64) kv.ManifestRecord {
	return kv.ManifestRecord{Seq: seq, StartSeq: 100 * seq, Half: int(seq % 2)}
}

func ptr[T any](v T) *T { return &v }

// commit describes one slot write in flight: the record ruling the other
// slot (nil: never written), the record the commit overwrites (nil: the
// slot was never written) and the record it writes into slot seq%2.
type commit[R any] struct {
	f          *twoslot.Format[R]
	other, old *R
	next       R
}

// sweep crashes the commit after every 64-byte chunk prefix and tears
// every chunk at word granularity under every mask. In each case the
// ruling record must be the one before the commit or the committed one,
// the torn report must name exactly the slot whose bytes are neither
// whole, and one repair must converge: a second load sees no torn slot
// and the same record.
func (c commit[R]) sweep(t *testing.T) {
	f := c.f
	target := f.Off(f.Seq(c.next)) / f.SlotLen
	table := make([]byte, 2*f.SlotLen)
	if c.other != nil {
		f.Put(table[(1-target)*f.SlotLen:], *c.other)
	}
	if c.old != nil {
		f.Put(table[target*f.SlotLen:], *c.old)
	}
	before := f.Load(table)
	if before.AnyTorn() {
		t.Fatal("table before the commit is torn")
	}
	oldSlot := append([]byte(nil), table[target*f.SlotLen:][:f.SlotLen]...)
	newSlot := f.Slot(c.next)

	check := func(what string, slot []byte) {
		t.Helper()
		tab := append([]byte(nil), table...)
		copy(tab[target*f.SlotLen:], slot)
		v := f.Load(tab)
		wantOK, wantRec := before.OK, before.Rec
		if bytes.Equal(slot, newSlot) {
			wantOK, wantRec = true, c.next
		}
		if v.OK != wantOK || !reflect.DeepEqual(v.Rec, wantRec) {
			t.Fatalf("%s: ruling %+v (ok=%v), want %+v (ok=%v)", what, v.Rec, v.OK, wantRec, wantOK)
		}
		var wantTorn [2]bool
		wantTorn[target] = !bytes.Equal(slot, oldSlot) && !bytes.Equal(slot, newSlot)
		if v.Torn != wantTorn {
			t.Fatalf("%s: torn %v, want %v", what, v.Torn, wantTorn)
		}
		if r := f.Repair(tab); !reflect.DeepEqual(r, v) {
			t.Fatalf("%s: repair acted on %+v, load said %+v", what, r, v)
		}
		if v2 := f.Load(tab); v2.AnyTorn() || v2.OK != v.OK || !reflect.DeepEqual(v2.Rec, v.Rec) {
			t.Fatalf("%s: repair did not converge: %+v after %+v", what, v2, v)
		}
	}

	chunks := f.SlotLen / mem.LineSize
	for k := 0; k <= chunks; k++ {
		slot := append([]byte(nil), oldSlot...)
		copy(slot[:k*mem.LineSize], newSlot)
		check("prefix", slot)
		if k == chunks {
			break
		}
		var o, n mem.Line
		copy(o[:], oldSlot[k*mem.LineSize:])
		copy(n[:], newSlot[k*mem.LineSize:])
		for mask := 0; mask < 256; mask++ {
			mixed := nvm.MixWords(o, n, byte(mask))
			copy(slot[k*mem.LineSize:], mixed[:])
			check("word-mix", slot)
		}
	}
}

// TestTearEveryChunk is the exhaustive crash-mid-commit property of every
// two-slot record format: a commit into an occupied slot, into a
// never-written slot beside an intact record, and (where the format has
// one) the very first commit into an empty table.
func TestTearEveryChunk(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"journal/occupied", commit[recovery.JournalRecord]{&recovery.JournalFormat, ptr(journalRec(4)), ptr(journalRec(3)), journalRec(5)}.sweep},
		{"journal/never-written", commit[recovery.JournalRecord]{&recovery.JournalFormat, ptr(journalRec(1)), nil, journalRec(2)}.sweep},
		{"journal/first", commit[recovery.JournalRecord]{&recovery.JournalFormat, nil, nil, journalRec(1)}.sweep},
		{"remap/occupied", commit[nvm.RemapRecord]{&nvm.RemapFormat, ptr(remapRec(6)), ptr(remapRec(5)), remapRec(7)}.sweep},
		{"remap/never-written", commit[nvm.RemapRecord]{&nvm.RemapFormat, ptr(remapRec(0)), nil, remapRec(1)}.sweep},
		{"manifest/occupied", commit[kv.ManifestRecord]{&kv.ManifestFormat, ptr(manifestRec(2)), ptr(manifestRec(1)), manifestRec(3)}.sweep},
		{"manifest/never-written", commit[kv.ManifestRecord]{&kv.ManifestFormat, ptr(manifestRec(1)), nil, manifestRec(2)}.sweep},
		{"manifest/first", commit[kv.ManifestRecord]{&kv.ManifestFormat, nil, nil, manifestRec(1)}.sweep},
	} {
		t.Run(c.name, c.run)
	}
}

// fuzzTable holds a format's codec to its contract on arbitrary slot
// bytes: loading never panics, a winning record re-encodes to its slot's
// sealed bytes, and after Repair a load reports no torn slot and the
// same record. seal bit s reseals slot s first, so the format's decoder
// sees arbitrary content behind a valid seal.
func fuzzTable[R any](t *testing.T, f *twoslot.Format[R], seal byte, data []byte) {
	table := make([]byte, 2*f.SlotLen)
	copy(table, data)
	for s := 0; s < 2; s++ {
		if seal&(1<<s) != 0 {
			twoslot.Seal(table[s*f.SlotLen:], f.Magic, f.SumOff)
		}
	}
	v := f.Load(table)
	if v.OK {
		won := false
		for s := 0; s < 2; s++ {
			slot := table[s*f.SlotLen:][:f.SlotLen]
			if r, st := f.Classify(slot); st == twoslot.Intact && reflect.DeepEqual(r, v.Rec) {
				won = won || bytes.Equal(f.Slot(r)[:f.SumOff+8], slot[:f.SumOff+8])
			}
		}
		if !won {
			t.Fatalf("ruling record %+v is no slot's sealed bytes", v.Rec)
		}
	}
	if r := f.Repair(table); !reflect.DeepEqual(r, v) {
		t.Fatalf("repair acted on %+v, load said %+v", r, v)
	}
	if v2 := f.Load(table); v2.AnyTorn() || v2.OK != v.OK || !reflect.DeepEqual(v2.Rec, v.Rec) {
		t.Fatalf("repair did not converge: %+v after %+v", v2, v)
	}
}

func FuzzTwoSlot(f *testing.F) {
	j := recovery.JournalFormat
	r := nvm.RemapFormat
	m := kv.ManifestFormat
	f.Add(uint8(0), uint8(0), append(j.Slot(journalRec(4)), j.Slot(journalRec(3))...))
	f.Add(uint8(1), uint8(0), append(r.Slot(remapRec(0)), r.Slot(remapRec(1))...))
	f.Add(uint8(2), uint8(0), append(m.Slot(manifestRec(2)), m.Slot(manifestRec(1))...))
	f.Add(uint8(1), uint8(3), r.Slot(remapRec(3)))
	f.Add(uint8(2), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, format, seal uint8, data []byte) {
		switch format % 3 {
		case 0:
			fuzzTable(t, &j, seal, data)
		case 1:
			fuzzTable(t, &r, seal, data)
		default:
			fuzzTable(t, &m, seal, data)
		}
	})
}
