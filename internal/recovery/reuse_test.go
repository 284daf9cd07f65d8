package recovery_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/store"
)

// applyVariant is one way of driving a recovery pass to completion.
type applyVariant struct {
	name  string
	apply func(img *engine.CrashImage, itr *recovery.Interrupt) (recovery.Recovered, bool)
}

// applyVariants are the three ways Apply can come by its counter walk:
// reused from the caller's Recover, from the Recover it runs itself on a
// nil report, and re-listed and re-walked from scratch. All three must
// leave the same image and registers behind.
var applyVariants = []applyVariant{
	{"shared", func(img *engine.CrashImage, itr *recovery.Interrupt) (recovery.Recovered, bool) {
		return recovery.ApplyInterrupted(img, recovery.Recover(img), itr)
	}},
	{"nil-report", func(img *engine.CrashImage, itr *recovery.Interrupt) (recovery.Recovered, bool) {
		return recovery.ApplyInterrupted(img, nil, itr)
	}},
	{"fresh-walk", func(img *engine.CrashImage, itr *recovery.Interrupt) (recovery.Recovered, bool) {
		rep := recovery.Recover(img)
		recovery.ForgetWalk(rep)
		return recovery.ApplyInterrupted(img, rep, itr)
	}},
}

// crashImage runs the mixed workload on design d and crashes mid-epoch,
// under the fault model f when it is non-nil.
func crashImage(t *testing.T, d string, f *nvm.FaultModel) *engine.CrashImage {
	t.Helper()
	st, err := store.Open(store.Options{Design: d, Capacity: capacity,
		Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	workload(t, e, 400, 7)
	// A back-to-back burst onto fresh pages leaves the write queue full
	// at the crash, so the fault model has first writes to drop and tear.
	now := int64(1 << 20)
	for i := 0; i < 64; i++ {
		a := mem.Addr(64<<12 + i*mem.LineSize*5)
		now = e.WriteBack(now, a, pattern(a, byte(i)))
	}
	return e.Crash()
}

// sameImage fails unless two recovered images hold the same written
// lines with the same bytes, the same stuck set and remap table, the
// same journal bytes and the same registers.
func sameImage(t *testing.T, what string, want, got *engine.CrashImage) {
	t.Helper()
	wa, ga := want.Image.Store.Addrs(), got.Image.Store.Addrs()
	if !slices.Equal(wa, ga) {
		t.Fatalf("%s: written lines differ (%d vs %d)", what, len(wa), len(ga))
	}
	for _, a := range wa {
		w, _ := want.Image.Store.Read(a)
		g, _ := got.Image.Store.Read(a)
		if w != g {
			t.Fatalf("%s: line %#x differs", what, uint64(a))
		}
	}
	if !reflect.DeepEqual(want.Image.Stuck, got.Image.Stuck) ||
		!slices.Equal(want.Image.RemapTable, got.Image.RemapTable) {
		t.Fatalf("%s: media state differs", what)
	}
	if !slices.Equal(want.RecoveryJournal, got.RecoveryJournal) {
		t.Fatalf("%s: recovery journal differs", what)
	}
	if !reflect.DeepEqual(want.TCB, got.TCB) {
		t.Fatalf("%s: TCB differs", what)
	}
}

// TestApplyWalkReuseIsExact pins the single per-pass enumeration: for
// every registered design, faultless and under a media fault model,
// Apply over the report's shared walk leaves byte-for-byte the image and
// TCB that a nil report or a from-scratch re-walk leaves — both when the
// pass runs through and when it is struck mid-plan and resumed from the
// recovery journal.
func TestApplyWalkReuseIsExact(t *testing.T) {
	faults := map[string]*nvm.FaultModel{
		"faultless": nil,
		"faults":    {Seed: 11, TornWrites: true, ADRBudget: 3, StuckLines: 2},
	}
	for _, d := range design.Names() {
		for _, fname := range []string{"faultless", "faults"} {
			f := faults[fname]
			t.Run(d+"/"+fname, func(t *testing.T) {
				img := crashImage(t, d, f)

				// Through: every variant completes in one pass.
				var ref *engine.CrashImage
				var plan int
				for _, v := range applyVariants {
					cp := cloneImage(img)
					itr := &recovery.Interrupt{}
					rec, ok := v.apply(cp, itr)
					if !ok {
						t.Fatalf("%s: uninterrupted pass did not complete", v.name)
					}
					if !reflect.DeepEqual(rec.TCB, cp.TCB) {
						t.Fatalf("%s: returned TCB is not the image's", v.name)
					}
					if ref == nil {
						ref, plan = cp, itr.Writes
						continue
					}
					sameImage(t, v.name, ref, cp)
				}

				// Interrupted, then resumed from the journal: strike early,
				// mid-plan and at the commit.
				for _, k := range []int{1, plan / 2, plan} {
					if k < 1 {
						continue
					}
					var first *engine.CrashImage
					for _, v := range applyVariants {
						cp := cloneImage(img)
						itr := &recovery.Interrupt{After: k, Faults: f, Seq: 1}
						if _, ok := v.apply(cp, itr); ok {
							t.Fatalf("%s: strike at write %d of %d did not interrupt", v.name, k, plan)
						}
						// A struck first write is the journal's begin record:
						// the next boot recovers from scratch, not by resuming.
						if k > 1 && !recovery.JournalActive(cp) {
							t.Fatalf("%s: pass struck at write %d left no active journal", v.name, k)
						}
						if _, ok := v.apply(cp, nil); !ok {
							t.Fatalf("%s: resumed pass did not complete", v.name)
						}
						if first == nil {
							first = cp
							continue
						}
						sameImage(t, fmt.Sprintf("%s after strike %d", v.name, k), first, cp)
					}
				}
			})
		}
	}
}
