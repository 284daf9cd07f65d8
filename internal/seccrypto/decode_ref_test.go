package seccrypto

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ccnvm/internal/mem"
)

// decodeCounterLineBitwise is the bit-at-a-time counter-line decoder
// DecodeCounterLine replaced. It walks the packed minors exactly as
// Encode lays them out and serves as the reference the word-wise
// decoder must match on every input.
func decodeCounterLineBitwise(l mem.Line) CounterLine {
	var c CounterLine
	c.Major = binary.LittleEndian.Uint64(l[:8])
	bitpos := 0
	for i := range c.Minors {
		byteIdx := 8 + bitpos/8
		off := bitpos % 8
		v := uint16(l[byteIdx]) >> off
		if off > 8-MinorBits {
			v |= uint16(l[byteIdx+1]) << (8 - off)
		}
		c.Minors[i] = uint8(v & MinorMax)
		bitpos += MinorBits
	}
	return c
}

// TestDecodeCounterLineMatchesBitwise compares the word-wise decoder
// with the bitwise reference on 200k random lines, plus the all-zero
// and all-ones lines and every single-bit line.
func TestDecodeCounterLineMatchesBitwise(t *testing.T) {
	check := func(l mem.Line) {
		t.Helper()
		if got, want := DecodeCounterLine(l), decodeCounterLineBitwise(l); got != want {
			t.Fatalf("line %x: word-wise %+v, bitwise %+v", l, got, want)
		}
	}
	var l mem.Line
	check(l)
	for i := range l {
		l[i] = 0xff
	}
	check(l)
	for bit := 0; bit < mem.LineSize*8; bit++ {
		var one mem.Line
		one[bit/8] = 1 << (bit % 8)
		check(one)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200000; i++ {
		rng.Read(l[:])
		check(l)
	}
}

// FuzzDecodeCounterLine: the word-wise decoder equals the bitwise
// reference on any 64-byte line.
func FuzzDecodeCounterLine(f *testing.F) {
	f.Add(make([]byte, mem.LineSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var l mem.Line
		copy(l[:], data)
		if got, want := DecodeCounterLine(l), decodeCounterLineBitwise(l); got != want {
			t.Fatalf("line %x: word-wise %+v, bitwise %+v", l, got, want)
		}
	})
}

var decodeSink CounterLine

func BenchmarkDecodeCounterLine(b *testing.B) {
	var l mem.Line
	rand.New(rand.NewSource(1)).Read(l[:])
	for i := 0; i < b.N; i++ {
		decodeSink = DecodeCounterLine(l)
	}
}
