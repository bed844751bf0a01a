package stream

import (
	"fmt"
	"sync"

	"loglens/internal/obs"
)

// driver holds the authoritative broadcast blocks (§V-A: the variable "is
// initially stored" at the driver; workers pull values over the network).
type driver struct {
	mu     sync.RWMutex
	blocks map[string]block
}

type block struct {
	value   any
	version uint64
}

type update struct {
	id    string
	value any
}

// inspectReq is one queued Inspect. visited/remaining are guarded by
// Engine.updMu: each worker runs fn for its own partition at most once,
// at its own barrier; whoever completes the set closes done.
type inspectReq struct {
	fn        func(partition int, states *StateMap)
	done      chan struct{}
	visited   []bool
	remaining int
}

// Broadcast installs value as broadcast variable id. While Run is not
// active the install takes effect at once. While Run is active it is the
// rebroadcast of §V-A: the update is queued and applied at the next
// micro-batch barrier any worker reaches — the driver installs the new
// value under the same ID, every worker invalidates its locally cached
// copy at its own next barrier, and subsequent getValue() calls pull the
// fresh value. The stream never stops and no partition state is lost.
func (e *Engine) Broadcast(id string, value any) {
	e.updMu.Lock()
	defer e.updMu.Unlock()
	if e.running.Load() {
		e.pending = append(e.pending, update{id: id, value: value})
		e.ctrlSeq.Add(1)
		return
	}
	e.installBlock(id, value)
	for _, w := range e.workers {
		delete(w.cache, id)
	}
}

// installBlock (updMu held) stores value in the driver under id and
// returns the block's new version.
func (e *Engine) installBlock(id string, value any) uint64 {
	e.driver.mu.Lock()
	v := e.driver.blocks[id].version + 1
	e.driver.blocks[id] = block{value: value, version: v}
	e.driver.mu.Unlock()
	e.instr.reg.Gauge("stream_broadcast_version", "engine", e.cfg.Name, "id", id).Set(int64(v))
	return v
}

// BroadcastVersions reports the driver's current version of a broadcast
// variable and, per worker, the version that worker last pulled (0 if it
// has never pulled). The gap between the two is the version skew the
// ops-plane probe watches after a rebroadcast.
func (e *Engine) BroadcastVersions(id string) (driver uint64, workers []uint64) {
	e.driver.mu.RLock()
	driver = e.driver.blocks[id].version
	e.driver.mu.RUnlock()
	workers = make([]uint64, len(e.workers))
	for i, w := range e.workers {
		if v, ok := w.pulled.Load(id); ok {
			workers[i] = v.(uint64)
		}
	}
	return driver, workers
}

// StateMap returns partition p's state map. Safe to use from the operator
// (same partition) or after Run returns; concurrent external mutation
// during Run is the caller's responsibility.
func (e *Engine) StateMap(p int) (*StateMap, error) {
	if p < 0 || p >= len(e.workers) {
		return nil, fmt.Errorf("stream: no partition %d", p)
	}
	return e.workers[p].states, nil
}

// Inspect runs fn against every partition's state map, each partition at
// its own next micro-batch barrier — the same serialized lock step model
// updates use — and blocks until all partitions have run it. It is the
// race-free way to observe partition state (open-event counts, state-map
// sizes) while the engine is live; invocations for different partitions
// are serialized but may interleave with other partitions' batches. If
// Run is not active the inspection executes immediately.
func (e *Engine) Inspect(fn func(partition int, states *StateMap)) {
	e.updMu.Lock()
	if !e.running.Load() {
		// No worker runs, and none starts while updMu is held.
		defer e.updMu.Unlock()
		for _, w := range e.workers {
			fn(w.id, w.states)
		}
		return
	}
	req := &inspectReq{
		fn:        fn,
		done:      make(chan struct{}),
		visited:   make([]bool, len(e.workers)),
		remaining: len(e.workers),
	}
	e.inspects = append(e.inspects, req)
	e.ctrlSeq.Add(1)
	e.updMu.Unlock()
	// Nudge parked workers so the inspection is served promptly even
	// when no traffic or timer would otherwise close their windows. A
	// request still open when Run exits is completed by flushCtrl.
	for _, w := range e.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	<-req.done
}

// syncWorker is the control-plane barrier: under updMu the worker
// installs any queued rebroadcasts (first arriver wins), serves queued
// inspections for its own partition, and collects its cache
// invalidations; outside the lock it applies them to its own cache.
func (e *Engine) syncWorker(w *worker) {
	e.updMu.Lock()
	seq := e.ctrlSeq.Load()
	e.installLocked()
	for i := 0; i < len(e.inspects); {
		req := e.inspects[i]
		if !req.visited[w.id] {
			req.visited[w.id] = true
			req.remaining--
			req.fn(w.id, w.states)
		}
		if req.remaining == 0 {
			close(req.done)
			e.inspects = append(e.inspects[:i], e.inspects[i+1:]...)
			continue
		}
		i++
	}
	inval := w.inval
	w.inval = nil
	e.updMu.Unlock()
	w.seenSeq = seq
	for _, id := range inval {
		delete(w.cache, id)
	}
}

// installLocked (updMu held) installs queued rebroadcasts: new driver
// blocks under the same IDs, with every worker's cached copy queued for
// invalidation at that worker's own barrier. Between the install and a
// worker's next barrier that worker may still serve the previous version
// — at most one batch of skew, the §V-A eventual-pull window the
// version-skew probe tolerates.
func (e *Engine) installLocked() {
	if len(e.pending) == 0 {
		return
	}
	start := e.cfg.Clock.Now()
	span := e.spans.Start(e.cfg.Name, "rebroadcast", e.driverTid)
	for _, u := range e.pending {
		v := e.installBlock(u.id, u.value)
		for _, w := range e.workers {
			w.inval = append(w.inval, u.id)
		}
		e.events.Record(obs.EventRebroadcastApplied, u.id, "installed at micro-batch barrier", int64(v))
	}
	span.End()
	e.instr.updates.Add(uint64(len(e.pending)))
	e.blocked.Add(int64(e.cfg.Clock.Since(start)))
	e.pending = nil
}

// flushCtrl completes the control plane at Run exit, when every worker
// has stopped: pending rebroadcasts install, unserved inspections run
// over the partitions no worker visited, worker cache invalidations
// apply, and running clears.
func (e *Engine) flushCtrl() {
	e.updMu.Lock()
	defer e.updMu.Unlock()
	e.installLocked()
	for _, req := range e.inspects {
		for _, w := range e.workers {
			if !req.visited[w.id] {
				req.fn(w.id, w.states)
			}
		}
		close(req.done)
	}
	e.inspects = nil
	for _, w := range e.workers {
		for _, id := range w.inval {
			delete(w.cache, id)
		}
		w.inval = nil
		w.seenSeq = e.ctrlSeq.Load()
	}
	e.running.Store(false)
}
