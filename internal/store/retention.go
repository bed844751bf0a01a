// Age-based retention: whole time-bucketed segments are dropped once
// their bucket falls behind the retention horizon — the cheap tiered
// eviction the paper's deployment needs for "millions of logs per day",
// and the store's only retention. Because buckets are stamped at seal
// time from the injected clock and segments are appended in time order,
// the victims of any tick form a prefix of each index's segment list,
// which keeps the drop shadow-safe: nothing in a dropped prefix can be
// the surviving copy of a later re-put, and the drop itself is just a
// manifest commit — crash-safe like every other seal.
package store

import "time"

// retentionTickLocked drops segments whose bucket window ended before
// now-Retention, committing a new generation when anything is
// droppable. It waits for a seal in flight first, so the victims are
// picked from the segment lists that seal leaves. Caller holds e.mu.
func (e *engine) retentionTickLocked(now time.Time) error {
	if e.opts.Retention <= 0 {
		return nil
	}
	e.waitSealLocked()
	cutoff := now.Add(-e.opts.Retention)
	var plan sealPlan
	for _, ix := range e.indices {
		if e.retentionExempt(ix.name) {
			continue
		}
		for _, sg := range ix.segs {
			if sg.bucket.Add(e.opts.BucketDuration).After(cutoff) {
				// Buckets are monotone within an index: the first young
				// segment ends the droppable prefix.
				break
			}
			if plan.drop == nil {
				plan.drop = make(map[*Index]map[*segment]bool)
			}
			if plan.drop[ix] == nil {
				plan.drop[ix] = make(map[*segment]bool)
			}
			plan.drop[ix][sg] = true
		}
	}
	if plan.drop == nil {
		return nil
	}
	return e.sealLocked(plan)
}

func (e *engine) retentionExempt(name string) bool {
	for _, ex := range e.opts.RetentionExempt {
		if ex == name {
			return true
		}
	}
	return false
}
