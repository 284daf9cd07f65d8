package perf

import (
	"strings"
	"testing"
)

// TestMeasureChurn drives a small arena through several capacities of
// overwrite traffic: every put must be acked (no permanent stall, no
// refusal), the compactor must have run, and the Compare gate must
// flag a churn regression on matching shapes while ignoring shape
// mismatches.
func TestMeasureChurn(t *testing.T) {
	o := ChurnOptions{Capacity: 1 << 19, ValBytes: 256, Keys: 8, Multiple: 4}
	p, err := MeasureChurn(o)
	if err != nil {
		t.Fatal(err)
	}
	if p.BytesWritten < uint64(o.Multiple)*p.Capacity {
		t.Fatalf("wrote %d bytes, want >= %dx the %d-byte half", p.BytesWritten, o.Multiple, p.Capacity)
	}
	if p.Passes == 0 || p.Reclaimed == 0 {
		t.Fatalf("churn never compacted: passes=%d reclaimed=%d", p.Passes, p.Reclaimed)
	}
	if p.OpsPerSec <= 0 {
		t.Fatalf("throughput %f", p.OpsPerSec)
	}

	mk := func(ops float64) *Ledger {
		l := &Ledger{Schema: Schema}
		l.HostFingerprint()
		c := *p
		c.OpsPerSec = ops
		l.Churn = &c
		return l
	}
	pinned, slow := mk(1000), mk(100)
	if _, err := Compare(pinned, slow); err == nil || !strings.Contains(err.Error(), "churn") {
		t.Fatalf("90%% churn regression not flagged: %v", err)
	}
	slow.Churn.Multiple++ // shape mismatch: the gate must stand down
	skipped, err := Compare(pinned, slow)
	if err != nil {
		t.Fatalf("shape-mismatched churn rows compared anyway: %v", err)
	}
	if len(skipped) != 1 || skipped[0].Row != "churn" || !strings.Contains(skipped[0].Reason, "shape") {
		t.Fatalf("shape-mismatched churn row not reported as skipped: %v", skipped)
	}
}
