// Package seccrypto implements the cryptographic substrate of the
// secure memory controller: the split-counter encoding used by counter
// lines, counter-mode encryption (CME) with AES-generated one-time pads,
// and the 128-bit truncated HMACs used for data authentication and for
// Bonsai-Merkle-Tree nodes.
//
// Unlike most architecture-simulator reproductions, this layer is fully
// functional: data written to the NVM model really is AES-encrypted and
// really carries verifiable HMACs, so integrity attacks are detected by
// actual verification failures rather than by bookkeeping flags. Timing
// (AES and HMAC latencies) is charged separately by the simulator.
package seccrypto

import (
	"encoding/binary"
	"fmt"

	"ccnvm/internal/mem"
)

// MinorBits is the width of a per-block minor counter in the
// split-counter organization; MinorMax is its largest value.
const (
	MinorBits = 7
	MinorMax  = 1<<MinorBits - 1
)

// CounterLine is the decoded form of one 64 B counter line: a 64-bit
// major counter shared by a 4 KB page plus one 7-bit minor counter per
// 64 B block, exactly filling a line (8 + 64*7/8 = 64 bytes).
//
// The effective per-block counter used as the CME seed and as HMAC input
// is Major*2^7 + Minor[slot]; a minor overflow bumps the major counter,
// clears every minor, and forces re-encryption of the whole page.
type CounterLine struct {
	Major  uint64
	Minors [mem.BlocksPerPage]uint8
}

// Counter returns the effective counter value of block slot.
func (c *CounterLine) Counter(slot int) uint64 {
	return c.Major<<MinorBits | uint64(c.Minors[slot])
}

// Bump increments the minor counter of slot. If the minor would
// overflow, it instead bumps the major counter, clears all minors, sets
// slot's minor to 1 and reports overflow=true: the caller must
// re-encrypt every block of the page under the new major.
func (c *CounterLine) Bump(slot int) (overflow bool) {
	if c.Minors[slot] < MinorMax {
		c.Minors[slot]++
		return false
	}
	c.Major++
	c.Minors = [mem.BlocksPerPage]uint8{}
	c.Minors[slot] = 1
	return true
}

// Encode packs the counter line into its 64-byte NVM representation:
// the major counter in the first 8 bytes (little endian), then the 64
// seven-bit minors bit-packed into the remaining 56 bytes.
func (c *CounterLine) Encode() mem.Line {
	var l mem.Line
	binary.LittleEndian.PutUint64(l[:8], c.Major)
	bitpos := 0
	for _, m := range c.Minors {
		byteIdx := 8 + bitpos/8
		off := bitpos % 8
		v := uint16(m&MinorMax) << off
		l[byteIdx] |= byte(v)
		if off > 8-MinorBits {
			l[byteIdx+1] |= byte(v >> 8)
		}
		bitpos += MinorBits
	}
	return l
}

// DecodeCounterLine unpacks a 64-byte counter line. The all-zero line
// decodes to the all-zero counter state, so untouched NVM reads as
// "never encrypted" (counter value 0).
//
// Eight 7-bit minors fill exactly seven bytes, so each group of eight
// is unpacked from one little-endian 64-bit load. The load starts one
// byte early (the last group ends at the line's final byte) and that
// byte is shifted out.
func DecodeCounterLine(l mem.Line) CounterLine {
	var c CounterLine
	c.Major = binary.LittleEndian.Uint64(l[:8])
	for g := 0; g < mem.BlocksPerPage/8; g++ {
		w := binary.LittleEndian.Uint64(l[7+7*g:]) >> 8
		m := c.Minors[8*g : 8*g+8]
		m[0] = uint8(w & MinorMax)
		m[1] = uint8(w >> 7 & MinorMax)
		m[2] = uint8(w >> 14 & MinorMax)
		m[3] = uint8(w >> 21 & MinorMax)
		m[4] = uint8(w >> 28 & MinorMax)
		m[5] = uint8(w >> 35 & MinorMax)
		m[6] = uint8(w >> 42 & MinorMax)
		m[7] = uint8(w >> 49 & MinorMax)
	}
	return c
}

// String summarizes a counter line for diagnostics.
func (c *CounterLine) String() string {
	nonzero := 0
	for _, m := range c.Minors {
		if m != 0 {
			nonzero++
		}
	}
	return fmt.Sprintf("ctr{major=%d dirtyMinors=%d}", c.Major, nonzero)
}
