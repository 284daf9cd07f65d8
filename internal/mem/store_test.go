package mem

import (
	"slices"
	"testing"
)

// TestStoreCloneCOWIsolation exercises the copy-on-write sharing in
// both directions: writes, deletes and overwrites on either side of a
// Clone must never become visible on the other side.
func TestStoreCloneCOWIsolation(t *testing.T) {
	var s Store
	var l Line
	// Populate enough lines to span several shards.
	for a := Addr(0); a < 200*LineSize; a += LineSize {
		l[0] = byte(a / LineSize)
		s.Write(a, l)
	}
	c := s.Clone()

	// Mutate the original: overwrite, delete, and fresh write.
	l[0] = 0xEE
	s.Write(0, l)
	s.Delete(64)
	s.Write(4096*LineSize, l)

	if got, _ := c.Read(0); got[0] != 0 {
		t.Fatalf("original overwrite leaked into clone: got %#x", got[0])
	}
	if _, ok := c.Read(64); !ok {
		t.Fatal("original delete leaked into clone")
	}
	if _, ok := c.Read(4096 * LineSize); ok {
		t.Fatal("original fresh write leaked into clone")
	}

	// Mutate the clone: the original must be equally unaffected.
	l[0] = 0xDD
	c.Write(128, l)
	c.Delete(192)
	if got, _ := s.Read(128); got[0] != 2 {
		t.Fatalf("clone overwrite leaked into original: got %#x", got[0])
	}
	if _, ok := s.Read(192); !ok {
		t.Fatal("clone delete leaked into original")
	}
}

// TestStoreCloneOfClone checks that chains of snapshots stay
// independent — the crash-consistency experiments snapshot the image at
// every potential crash point, producing long ancestor chains.
func TestStoreCloneOfClone(t *testing.T) {
	var s Store
	var l Line
	l[0] = 1
	s.Write(0, l)

	snaps := make([]*Store, 0, 8)
	for i := 0; i < 8; i++ {
		snaps = append(snaps, s.Clone())
		l[0] = byte(i + 2)
		s.Write(0, l)
	}
	for i, c := range snaps {
		got, _ := c.Read(0)
		if int(got[0]) != i+1 {
			t.Fatalf("snapshot %d: got %d, want %d", i, got[0], i+1)
		}
	}
}

// TestStoreCloneStructCopy mirrors nvm.Device.Restore, which assigns
// *img.Store.Clone() by value: the by-value copy must still be
// copy-on-write isolated from the source image.
func TestStoreCloneStructCopy(t *testing.T) {
	var img Store
	var l Line
	l[0] = 7
	img.Write(0, l)

	restored := *img.Clone()
	l[0] = 9
	restored.Write(0, l)
	if got, _ := img.Read(0); got[0] != 7 {
		t.Fatalf("write through by-value clone leaked into source: got %d", got[0])
	}
	restored.Delete(0)
	if _, ok := img.Read(0); !ok {
		t.Fatal("delete through by-value clone leaked into source")
	}
}

// TestStoreZeroValueAfterClone makes sure cloning an empty zero-value
// store yields a usable, writable store.
func TestStoreZeroValueAfterClone(t *testing.T) {
	var s Store
	c := s.Clone()
	var l Line
	l[0] = 3
	c.Write(64, l)
	if s.Len() != 0 {
		t.Fatal("write to clone of empty store leaked into source")
	}
	if got, _ := c.Read(64); got[0] != 3 {
		t.Fatal("clone of empty store dropped a write")
	}
}

// TestStoreDeleteAbsentKeepsSharing verifies the no-op fast path:
// deleting an absent line must not privatize a shared shard (that would
// defeat the point of lazy snapshots) and must stay correct.
func TestStoreDeleteAbsentKeepsSharing(t *testing.T) {
	var s Store
	var l Line
	l[0] = 5
	s.Write(0, l)
	c := s.Clone()
	c.Delete(64 * LineSize) // absent; same shard as addr 0
	if sh := &c.shards[shardOf(0)]; sh.owned {
		t.Fatal("no-op delete privatized a shared shard")
	}
	if got, _ := c.Read(0); got[0] != 5 {
		t.Fatal("no-op delete corrupted shard contents")
	}
}

// TestStoreAddrsInMatchesFilteredAddrs pins the range enumeration to
// its definition: the ascending written lines overlapping [lo, hi), i.e.
// Addrs() filtered to Align(lo) <= a < hi. The stores under test share
// shards through a copy-on-write Clone and have diverged on both sides.
func TestStoreAddrsInMatchesFilteredAddrs(t *testing.T) {
	var src Store
	var l Line
	for a := Addr(0); a < 300*LineSize; a += 3 * LineSize {
		l[0] = byte(a / LineSize)
		src.Write(a, l)
	}
	src.Write(1<<20, l)
	clone := src.Clone()
	src.Delete(3 * LineSize)
	src.Write(1000*LineSize, l)
	clone.Delete(6 * LineSize)
	clone.Write(7*LineSize, l)

	const capacity = Addr(2 << 20)
	cases := []struct {
		name   string
		lo, hi Addr
	}{
		{"whole", 0, capacity},
		{"aligned window", 30 * LineSize, 90 * LineSize},
		{"unaligned lo", 30*LineSize + 17, 90 * LineSize},
		{"unaligned hi", 30 * LineSize, 90*LineSize + 5},
		{"hi past capacity", 200 * LineSize, ^Addr(0)},
		{"empty", 60 * LineSize, 60 * LineSize},
		{"inverted", 90 * LineSize, 30 * LineSize},
		{"unaligned lo in hi's line", 60*LineSize + 1, 60*LineSize + 2},
		{"no written lines", 1 << 19, 1 << 20},
	}
	for _, st := range []struct {
		name string
		s    *Store
	}{{"source", &src}, {"clone", clone}} {
		for _, c := range cases {
			t.Run(st.name+"/"+c.name, func(t *testing.T) {
				var want []Addr
				for _, a := range st.s.Addrs() {
					if a >= Align(c.lo) && a < c.hi {
						want = append(want, a)
					}
				}
				got := st.s.AddrsIn(c.lo, c.hi)
				if !slices.Equal(got, want) {
					t.Fatalf("AddrsIn(%#x, %#x) = %v, want %v", uint64(c.lo), uint64(c.hi), got, want)
				}
			})
		}
	}
}
