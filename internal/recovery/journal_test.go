package recovery

import (
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/twoslot"
)

func sampleRecord(seq uint64, active bool) JournalRecord {
	rec := JournalRecord{
		Active:          active,
		Seq:             seq,
		ConsistentRoot:  "new",
		PotentialReplay: seq%2 == 0,
		CrashLossWindow: seq%3 == 0,
		Nwb:             41,
		Nretry:          41,
		Blocks:          7,
		Lines:           3,
		PendingValid:    true,
		PendingAddr:     mem.Addr(0x51000040),
	}
	for i := range rec.Root {
		rec.Root[i] = byte(seq) + byte(i)
	}
	for i := range rec.PendingLine {
		rec.PendingLine[i] = ^byte(i)
	}
	return rec
}

func TestJournalSlotRoundTrip(t *testing.T) {
	for _, rec := range []JournalRecord{
		sampleRecord(3, true),
		sampleRecord(4, false),
		{Seq: 1, ConsistentRoot: "old"},
		{}, // zero record must still round-trip
	} {
		got, st := JournalFormat.Classify(JournalFormat.Slot(rec))
		if st != twoslot.Intact {
			t.Fatalf("encoded record Seq=%d did not decode", rec.Seq)
		}
		if got != rec {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, rec)
		}
	}
}

func TestJournalChecksumFailsClosed(t *testing.T) {
	// A record torn anywhere — payload or checksum — must decode as
	// invalid, never as a plausible half-record.
	base := JournalFormat.Slot(sampleRecord(9, true))
	// Offsets cover the payload and the checksum itself; the padding past
	// joChecksum+8 is not protected (and carries no state).
	for _, off := range []int{joMagic, joFlags, joSeq, joRootLine, joPendLine, joChecksum, joChecksum + 7} {
		buf := append([]byte(nil), base...)
		buf[off] ^= 0x40
		if _, st := JournalFormat.Classify(buf); st != twoslot.Torn {
			t.Errorf("record with byte %d corrupted still decoded", off)
		}
	}
	if _, st := JournalFormat.Classify(base[:journalSlotLen-1]); st != twoslot.Torn {
		t.Error("short buffer decoded")
	}
}
