package perf

import (
	"errors"
	"fmt"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// ChurnOptions parameterize the sustained-churn measurement: a small
// hot key set is overwritten until the cumulative log traffic exceeds
// a multiple of the arena half, forcing the degradation ladder and the
// compactor to run in-line with the writes.
type ChurnOptions struct {
	Design   string // 0 = the paper's design
	Capacity uint64 // data-region bytes (0 = 1 MiB)
	ValBytes int    // value size in bytes (0 = 1024)
	Keys     int    // hot-set size (0 = 16)
	Multiple int    // stop after this many log capacities of traffic (0 = 4)
}

func (o *ChurnOptions) fill() {
	if o.Design == "" {
		o.Design = design.CCNVM
	}
	if o.Capacity == 0 {
		o.Capacity = 1 << 20
	}
	if o.ValBytes <= 0 {
		o.ValBytes = 1024
	}
	if o.Keys <= 0 {
		o.Keys = 16
	}
	if o.Multiple <= 0 {
		o.Multiple = 4
	}
}

// ChurnPerf is the sustained-churn row of the ledger: overwrite
// throughput once the log has wrapped and every admission rides the
// write controller, plus the stall time the ladder charged and the
// compactor's reclaim counters. A permanent stall or a refused write
// is a measurement failure, not a data point.
type ChurnPerf struct {
	Design       string  `json:"design"`
	Capacity     uint64  `json:"capacity"` // log-half bytes (write-controller capacity)
	ValBytes     int     `json:"val_bytes"`
	Keys         int     `json:"keys"`
	Multiple     int     `json:"multiple"`
	Batches      int     `json:"batches"`       // acked single-put batches
	BytesWritten uint64  `json:"bytes_written"` // framed log bytes appended
	Passes       uint64  `json:"passes"`        // compaction passes the ladder ran
	Reclaimed    uint64  `json:"reclaimed_lines"`
	WallSeconds  float64 `json:"wall_seconds"`
	OpsPerSec    float64 `json:"ops_per_sec"`   // acked batches / second
	StallSeconds float64 `json:"stall_seconds"` // ladder-charged stall time
}

// shape is the run shape the regression gate requires to match before
// it compares two churn rows; "" for a ledger without the row.
func (p *ChurnPerf) shape() string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("design=%s capacity=%d val=%d keys=%d multiple=%d",
		p.Design, p.Capacity, p.ValBytes, p.Keys, p.Multiple)
}

// MeasureChurn overwrites a small hot set in-process until Multiple
// log-halves of framed traffic have been appended. Because the hot set
// is tiny and the arena is small, every capacity's worth of writes
// forces a full compaction cycle: the number reflects write, flush,
// copy-out and reclaim cost together, which is the paper's sustained
// steady state rather than the fill-once throughput MeasureKV reports.
func MeasureChurn(o ChurnOptions) (*ChurnPerf, error) {
	o.fill()
	st, err := store.Open(store.Options{
		Design:   o.Design,
		Capacity: o.Capacity,
		Params:   engine.Params{UpdateLimit: 16, QueueEntries: 64},
	})
	if err != nil {
		return nil, err
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	capBytes := db.Stats().Stall.Capacity
	target := uint64(o.Multiple) * capBytes
	val := make([]byte, o.ValBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	// A one-put batch frames as a header line plus the record payload.
	// Count only the header and value lines — a deliberate underestimate
	// (the key and record framing add a little more), so hitting the
	// byte target guarantees at least Multiple halves really hit media.
	lineSize := uint64(mem.LineSize)
	frame := (uint64(o.ValBytes)+lineSize-1)/lineSize*lineSize + lineSize

	p := &ChurnPerf{
		Design: o.Design, Capacity: capBytes, ValBytes: o.ValBytes,
		Keys: o.Keys, Multiple: o.Multiple,
	}
	start := time.Now()
	for written := uint64(0); written < target; written += frame {
		key := fmt.Sprintf("hot-%04d", p.Batches%o.Keys)
		if err := db.Put([]byte(key), val); err != nil {
			if errors.Is(err, kv.ErrLogFull) || errors.Is(err, store.ErrReadOnly) {
				return nil, fmt.Errorf("perf: churn refused after %d batches (%d/%d bytes): %w",
					p.Batches, written, target, err)
			}
			return nil, err
		}
		p.Batches++
		p.BytesWritten += frame
	}
	p.WallSeconds = time.Since(start).Seconds()

	stats := db.Stats()
	p.StallSeconds = float64(stats.Stall.StallNanos) / 1e9
	if c := stats.Compaction; c != nil {
		p.Passes = c.Passes
		p.Reclaimed = c.ReclaimedLines
	}
	if p.Passes == 0 {
		return nil, fmt.Errorf("perf: churn wrote %d bytes over a %d-byte half without a single compaction pass", p.BytesWritten, capBytes)
	}
	if p.WallSeconds > 0 {
		p.OpsPerSec = float64(p.Batches) / p.WallSeconds
	}
	return p, nil
}
