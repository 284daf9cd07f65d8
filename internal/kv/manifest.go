package kv

import (
	"encoding/binary"

	"ccnvm/internal/mem"
	"ccnvm/internal/twoslot"
)

// The compaction manifest is the namespace's one piece of non-append
// metadata: two single-line slots at the very start of the data region,
// in front of the log arena. A compaction pass rewrites the live set
// into the inactive half of the arena and then commits the relocation
// with ONE line write into the slot its sequence number selects
// (seq%2). The slots follow the two-slot codec (internal/twoslot) the
// device's remap table and the recovery journal share: newest valid
// sequence wins, a torn slot falls back to the other slot, and reopen
// repairs the torn slot. Both slots empty is a fresh namespace:
// generation 0, half 0 active, log starts at frame 1.
//
// Slot line layout (one mem.Line per slot; slot s at byte s*64):
//
//	[0:8)   magic "CKVMANIF"
//	[8:16)  seq      — commit generation, 1-based; the slot written is seq%2
//	[16:24) startSeq — last frame seq before the compacted run; the
//	                   active half's first frame carries startSeq+1
//	[24]    half     — arena half (0/1) holding the live log
//	[25:32) zero
//	[32:40) FNV-64a over bytes [0:32)
//	[40:64) zero
const (
	manifestMagic = "CKVMANIF"
	manifestSlots = 2
	// arenaStart is the first log byte: the arena sits past the slots.
	arenaStart = mem.Addr(manifestSlots * mem.LineSize)
)

// ManifestRecord is one decoded manifest commit. The zero value is the
// fresh-namespace state.
type ManifestRecord struct {
	Seq      uint64 // commit generation (0 = never compacted)
	StartSeq uint64 // frame seq preceding the active run
	Half     int    // arena half holding the live log
}

// ManifestFormat is the manifest slot on the shared two-slot codec. A
// committed generation is never 0 and names one of the two halves; a
// sealed slot claiming otherwise is damage.
var ManifestFormat = twoslot.Format[ManifestRecord]{
	Magic:   manifestMagic,
	SlotLen: mem.LineSize,
	SumOff:  32,
	Encode: func(b []byte, r ManifestRecord) {
		binary.LittleEndian.PutUint64(b[8:16], r.Seq)
		binary.LittleEndian.PutUint64(b[16:24], r.StartSeq)
		b[24] = byte(r.Half)
	},
	Decode: func(b []byte) (ManifestRecord, bool) {
		r := ManifestRecord{
			Seq:      binary.LittleEndian.Uint64(b[8:16]),
			StartSeq: binary.LittleEndian.Uint64(b[16:24]),
			Half:     int(b[24]),
		}
		return r, r.Seq != 0 && r.Half < manifestSlots
	},
	Seq: func(r ManifestRecord) uint64 { return r.Seq },
}
