package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"loglens/internal/stream"
)

// RebroadcastResult quantifies the §V-A claim: model updates at runtime
// block only for an in-memory copy, with zero downtime and zero record
// loss.
type RebroadcastResult struct {
	// Records is the number of records streamed.
	Records int
	// Updates is the number of runtime model updates applied.
	Updates int
	// Processed is how many records the operator actually handled
	// (must equal Records: zero loss).
	Processed uint64
	// BlockedTotal is the cumulative serialized lock-step time across
	// all updates; BlockedPerUpdate is the average.
	BlockedTotal     time.Duration
	BlockedPerUpdate time.Duration
	// VersionsSeen counts distinct model versions observed by the
	// operator (updates must actually take effect).
	VersionsSeen int
	// Elapsed is the total run time.
	Elapsed time.Duration
}

// RunRebroadcast streams records through an engine while issuing model
// updates, and measures the blocking cost of the update path.
func RunRebroadcast(records, updates, partitions int) (*RebroadcastResult, error) {
	var processed atomic.Uint64
	versionSet := make([]atomic.Bool, updates+1)

	e := stream.New(stream.Config{Partitions: partitions, BatchInterval: time.Millisecond},
		func(ctx *stream.Context, rec stream.Record) []any {
			v, ok := ctx.Broadcast("model")
			if ok {
				versionSet[v.(int)].Store(true)
			}
			processed.Add(1)
			return nil
		})
	e.Broadcast("model", 0)

	done := make(chan error, 1)
	start := expClock.Now()
	go func() { done <- e.Run(context.Background()) }()

	perUpdate := records / (updates + 1)
	for i := 0; i < records; i++ {
		if err := e.Send(stream.Record{Key: fmt.Sprintf("k%d", i%64)}); err != nil {
			return nil, err
		}
		if updates > 0 && i > 0 && i%perUpdate == 0 && i/perUpdate <= updates {
			// Let the sent records flow before the swap, so every
			// model version actually serves traffic (otherwise
			// back-to-back updates coalesce into one batch gap).
			for processed.Load() < uint64(i)*9/10 {
				time.Sleep(time.Millisecond)
			}
			e.Broadcast("model", i/perUpdate)
		}
	}
	e.Close()
	if err := <-done; err != nil {
		return nil, err
	}
	elapsed := expClock.Since(start)

	m := e.Metrics()
	res := &RebroadcastResult{
		Records:      records,
		Updates:      int(m.UpdatesApplied),
		Processed:    processed.Load(),
		BlockedTotal: m.UpdateBlocked,
		Elapsed:      elapsed,
	}
	if m.UpdatesApplied > 0 {
		res.BlockedPerUpdate = m.UpdateBlocked / time.Duration(m.UpdatesApplied)
	}
	for i := range versionSet {
		if versionSet[i].Load() {
			res.VersionsSeen++
		}
	}
	return res, nil
}

// Format renders the result for the console.
func (r *RebroadcastResult) Format() string {
	return fmt.Sprintf(
		"rebroadcast under load: %d records, %d runtime model updates\n"+
			"  records processed : %d (zero loss: %v)\n"+
			"  model versions hit: %d\n"+
			"  update lock-step  : %v total, %v per update (zero downtime: stream never restarted)\n"+
			"  total run         : %v\n",
		r.Records, r.Updates, r.Processed, uint64(r.Records) == r.Processed,
		r.VersionsSeen, r.BlockedTotal, r.BlockedPerUpdate, r.Elapsed)
}
