package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
)

// verdictRig is one engine plus a log of the violation sites its shared
// read path reports.
type verdictRig struct {
	e     engine.Engine
	b     *engine.Base
	sites []string
}

func newVerdictRig(t *testing.T, name string) *verdictRig {
	r := &verdictRig{e: rig(t, name, engine.Params{})}
	r.b = engine.BaseOf(r.e)
	r.b.OnViolation = func(site string, a mem.Addr, level int) {
		r.sites = append(r.sites, fmt.Sprintf("%s@%#x/%d", site, a, level))
	}
	return r
}

// tamper edits the persistent NVM contents the way an adversary with
// physical access would.
func (r *verdictRig) tamper(edit func(img *nvm.Image)) {
	dev := r.b.Ctrl.Device()
	img := dev.Snapshot()
	edit(img)
	dev.Restore(img)
}

// scrubMemoStats zeroes the observational memo counters, which differ
// by construction between the two read paths.
func scrubMemoStats(s engine.SecStats) engine.SecStats {
	s.PadCacheHits, s.PadCacheMisses = 0, 0
	s.DataMemoHits, s.DataMemoMisses = 0, 0
	s.NodeMemoHits, s.NodeMemoMisses = 0, 0
	return s
}

// TestReadVerdictMatchesFullLineReference pins the single-slot read
// path: on every registered design, Base.ReadBlock and the reference
// that verifies against the fully synthesized DefaultHMACLine slot run
// on two engines driven identically. Each read must return the same
// plaintext and done cycle, raise the same IntegrityViolations delta,
// report the same OnViolation sites, and leave every modeled statistic
// (HMAC/AES operations, controller traffic) identical.
func TestReadVerdictMatchesFullLineReference(t *testing.T) {
	const page = mem.PageSize
	never := mem.Addr(16 * page)
	zeroW := mem.Addr(17 * page)
	hmacGone := mem.Addr(18 * page)
	bothGone := mem.Addr(19 * page)
	spoofed := mem.Addr(20 * page)
	corrupt := mem.Addr(21 * page)
	replayed := mem.Addr(22 * page)

	// packed marks a compressible write: Arsenal stores it packed with
	// its counter and HMAC inline and never serves it through the shared
	// path, so there the verdicts are compared but not predicted.
	type read struct {
		name          string
		addr          mem.Addr
		wantViolation bool
		packed        bool
	}
	reads := []read{
		{"never-written", never, false, false},
		{"never-written neighbour", never + 5*mem.LineSize, false, false},
		{"zero-valued written", zeroW, false, true},
		{"default slot in written HMAC line", zeroW + mem.LineSize, false, false},
		{"data present, HMAC line deleted", hmacGone, true, false},
		{"never-written block of deleted HMAC line", hmacGone + mem.LineSize, false, false},
		{"non-zero counter, data and HMAC line absent", bothGone, true, false},
		{"counter 0, spoofed data, HMAC line absent", spoofed, true, false},
		{"corrupted HMAC slot", corrupt, true, false},
		{"replayed data line", replayed, true, false},
	}

	for _, name := range design.Names() {
		t.Run(name, func(t *testing.T) {
			got, ref := newVerdictRig(t, name), newVerdictRig(t, name)
			_, packs := got.e.(*engine.Arsenal)
			rng := rand.New(rand.NewSource(13))
			random := func() mem.Line {
				var l mem.Line
				rng.Read(l[:])
				return l
			}
			v1, v2 := random(), random()
			writes := []struct {
				addr mem.Addr
				pt   mem.Line
			}{
				{zeroW, mem.Line{}}, {hmacGone, random()}, {bothGone, random()},
				{corrupt, random()}, {replayed, v1},
			}
			spoof := random()
			var oldReplayed mem.Line

			now := int64(0)
			for _, r := range []*verdictRig{got, ref} {
				now = 0
				for _, w := range writes {
					now = r.e.WriteBack(now, w.addr, w.pt) + 1000
				}
				now = r.e.Settle(now) + 1000
				oldReplayed, _ = r.b.Ctrl.Device().Peek(replayed)
				now = r.e.WriteBack(now, replayed, v2) + 1000
				now = r.e.Settle(now) + 1000
				r.tamper(func(img *nvm.Image) {
					lay := r.b.Lay
					ha, _ := lay.HMACLineOf(hmacGone)
					img.Store.Delete(ha)
					ha, _ = lay.HMACLineOf(bothGone)
					img.Store.Delete(ha)
					img.Store.Delete(bothGone)
					img.Write(spoofed, spoof)
					ha, slot := lay.HMACLineOf(corrupt)
					hl, _ := img.Read(ha)
					hl[slot*mem.HMACSize] ^= 1
					img.Write(ha, hl)
					img.Write(replayed, oldReplayed)
				})
			}
			if !reflect.DeepEqual(scrubMemoStats(got.e.Stats()), scrubMemoStats(ref.e.Stats())) {
				t.Fatal("rigs diverged before the first read")
			}

			for _, rd := range reads {
				v0g, v0r := got.e.Stats().IntegrityViolations, ref.e.Stats().IntegrityViolations
				s0g, s0r := len(got.sites), len(ref.sites)
				ptG, doneG := got.b.ReadBlock(now, rd.addr)
				ptR, doneR := engine.ReadBlockReference(ref.b, now, rd.addr)
				dG := got.e.Stats().IntegrityViolations - v0g
				dR := ref.e.Stats().IntegrityViolations - v0r
				switch {
				case ptG != ptR:
					t.Errorf("%s: plaintext differs from reference", rd.name)
				case doneG != doneR:
					t.Errorf("%s: done at %d, reference %d", rd.name, doneG, doneR)
				case dG != dR:
					t.Errorf("%s: %d violations, reference %d", rd.name, dG, dR)
				case !reflect.DeepEqual(got.sites[s0g:], ref.sites[s0r:]):
					t.Errorf("%s: sites %v, reference %v", rd.name, got.sites[s0g:], ref.sites[s0r:])
				case !reflect.DeepEqual(scrubMemoStats(got.e.Stats()), scrubMemoStats(ref.e.Stats())):
					t.Errorf("%s: engine stats diverged from reference", rd.name)
				case got.b.Ctrl.Stats() != ref.b.Ctrl.Stats():
					t.Errorf("%s: controller stats diverged from reference", rd.name)
				}
				if !(packs && rd.packed) && (dG > 0) != rd.wantViolation {
					t.Errorf("%s: violation=%v, want %v", rd.name, dG > 0, rd.wantViolation)
				}
				now = doneG + 100
			}
		})
	}
}
