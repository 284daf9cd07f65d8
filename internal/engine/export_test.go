package engine

import (
	"ccnvm/internal/mem"
	"ccnvm/internal/seccrypto"
)

func (b *Base) base() *Base { return b }

// BaseOf returns the Base a design engine embeds.
func BaseOf(e Engine) *Base { return e.(interface{ base() *Base }).base() }

// ReadBlockReference is the shared read path with the verification it
// had before the single-slot fetch: a never-written HMAC line is
// synthesized in full by DefaultHMACLine, and the block's HMAC is always
// recomputed and compared with the stored slot. Tests run it beside
// ReadBlock on an identical engine to pin that both reach the same
// verdict at the same cycle.
func ReadBlockReference(b *Base, now int64, addr mem.Addr) (mem.Line, int64) {
	addr = mem.Align(addr)
	b.stats.Reads++
	ct, _, tData := b.Ctrl.Read(now, addr)
	ha, hslot := b.Lay.HMACLineOf(addr)
	hline, ok, tH := b.Ctrl.Read(now, ha)
	if !ok {
		hline = b.DefaultHMACLine(ha)
	}
	ca := b.Lay.CounterLineOf(addr)
	cl, tCtr := b.counterFn(now, ca)
	slot := b.Lay.CounterSlotOf(addr)
	ctr := cl.Counter(slot)

	stored := seccrypto.GetHMAC(hline, hslot)
	okAuth := b.Cry.DataHMAC(addr, ctr, ct) == stored

	tOTP := b.AESOp(tCtr)
	tVer := b.HMACOp(max(max(tData, tCtr), tH), 1)
	done := max(max(tData, tOTP), tVer)
	pt := b.Cry.Decrypt(addr, ctr, ct)
	if !okAuth {
		b.stats.IntegrityViolations++
		if b.OnViolation != nil {
			b.OnViolation("data-hmac", addr, -1)
		}
	}
	return pt, done
}
