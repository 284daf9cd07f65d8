// Package twoslot is the commit codec shared by every two-slot metadata
// record: the recovery journal, the spare remap table and the KV
// compaction manifest. A record kind owns two fixed slots and commits
// generation seq into slot seq%2, so a power failure mid-commit can only
// damage the slot being written while the other slot's record keeps
// ruling. A format supplies only its field layout; the seal, slot
// classification, the ruling and repair live here.
package twoslot

import (
	"bytes"
	"encoding/binary"
)

// Sum is FNV-64a. It is content integrity only — it tells a torn write
// from a whole one; authenticity comes from where the record lives
// (inside the TCB's boundary, or in engine-authenticated data lines).
func Sum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// Seal writes magic at the front of b and the little-endian Sum of
// b[:sumOff] at b[sumOff:sumOff+8].
func Seal(b []byte, magic string, sumOff int) {
	copy(b, magic)
	binary.LittleEndian.PutUint64(b[sumOff:], Sum(b[:sumOff]))
}

// Sealed reports whether b starts with magic and carries the checksum
// of its sealed prefix.
func Sealed(b []byte, magic string, sumOff int) bool {
	return len(b) >= sumOff+8 && string(b[:len(magic)]) == magic &&
		binary.LittleEndian.Uint64(b[sumOff:]) == Sum(b[:sumOff])
}

// Format is one record kind's slot layout.
type Format[R any] struct {
	Magic   string // leading bytes of every intact slot
	SlotLen int    // bytes per slot; a table is two slots back to back
	SumOff  int    // checksum offset; the seal covers [0, SumOff)

	// Encode writes r's fields into a zeroed slot.
	Encode func(b []byte, r R)
	// Decode parses the fields of a sealed slot; false is a record the
	// format's structural checks reject.
	Decode func(b []byte) (R, bool)
	// Seq is r's commit generation.
	Seq func(r R) uint64
}

// Status classifies one slot.
type Status uint8

const (
	Empty  Status = iota // every byte zero: never written
	Intact               // holds a record
	Torn                 // anything else
)

// Verdict is the ruling over one two-slot table.
type Verdict[R any] struct {
	Rec  R       // the ruling record; zero when !OK
	OK   bool    // some slot is intact
	Torn [2]bool // slots that are neither intact nor empty
}

// AnyTorn reports whether either slot is torn.
func (v Verdict[R]) AnyTorn() bool { return v.Torn[0] || v.Torn[1] }

// Put zeroes slot b, encodes r into it and seals it.
func (f *Format[R]) Put(b []byte, r R) {
	clear(b[:f.SlotLen])
	f.Encode(b, r)
	Seal(b, f.Magic, f.SumOff)
}

// Slot returns r sealed into a fresh slot.
func (f *Format[R]) Slot(r R) []byte {
	b := make([]byte, f.SlotLen)
	f.Put(b, r)
	return b
}

// Off is the table offset of the slot generation seq commits to.
func (f *Format[R]) Off(seq uint64) int { return int(seq%2) * f.SlotLen }

// Classify decodes slot b. It is Intact when sealed, accepted by Decode
// and byte for byte the encoding of the record it decodes to; Empty when
// every byte is zero, so a slot missing only its magic is Torn.
func (f *Format[R]) Classify(b []byte) (R, Status) {
	var zero R
	if len(b) >= f.SlotLen && Sealed(b, f.Magic, f.SumOff) {
		if r, ok := f.Decode(b); ok && bytes.Equal(f.Slot(r)[:f.SumOff+8], b[:f.SumOff+8]) {
			return r, Intact
		}
	}
	for _, c := range b {
		if c != 0 {
			return zero, Torn
		}
	}
	return zero, Empty
}

// Load rules over a two-slot table: the newest intact sequence number
// wins, a tie goes to slot 0, and every torn slot is reported. A table
// shorter than two slots has no record and no torn slot.
func (f *Format[R]) Load(table []byte) Verdict[R] {
	var v Verdict[R]
	if len(table) < 2*f.SlotLen {
		return v
	}
	for s := range v.Torn {
		r, st := f.Classify(table[s*f.SlotLen : (s+1)*f.SlotLen])
		switch {
		case st == Torn:
			v.Torn[s] = true
		case st == Intact && (!v.OK || f.Seq(r) > f.Seq(v.Rec)):
			v.Rec, v.OK = r, true
		}
	}
	return v
}

// Repair rewrites every torn slot of table in place — with the ruling
// record, or zeroes when none rules (a first commit that never completed
// rolls back to empty) — so one repair converges. It returns the verdict
// it acted on.
func (f *Format[R]) Repair(table []byte) Verdict[R] {
	v := f.Load(table)
	for s, torn := range v.Torn {
		if !torn {
			continue
		}
		slot := table[s*f.SlotLen : (s+1)*f.SlotLen]
		if v.OK {
			f.Put(slot, v.Rec)
		} else {
			clear(slot)
		}
	}
	return v
}
