package stream

import "time"

// Context is the operator's view of its partition.
type Context struct {
	engine *Engine
	worker *worker

	// batchStart is the worker's pickup stamp for the micro-batch this
	// context is processing — taken once per batch, so operators can
	// close delivery-latency measurements without paying a per-record
	// clock read.
	batchStart time.Time
}

// Partition returns the partition index.
func (c *Context) Partition() int { return c.worker.id }

// BatchStart returns the engine's clock stamp from the moment this
// micro-batch was picked up for processing. All records of the batch
// share it.
func (c *Context) BatchStart() time.Time { return c.batchStart }

// States returns the partition's state map — the getParentStateMap()
// analog of §V-B, letting heartbeat handling enumerate open states without
// their keys.
func (c *Context) States() *StateMap { return c.worker.states }

// Broadcast returns the current value of a broadcast variable via the
// worker's getValue() protocol: local cache first, then a pull from the
// driver on a miss.
func (c *Context) Broadcast(id string) (any, bool) {
	if b, ok := c.worker.cache[id]; ok {
		return b.value, true
	}
	c.engine.driver.mu.RLock()
	b, ok := c.engine.driver.blocks[id]
	c.engine.driver.mu.RUnlock()
	if !ok {
		return nil, false
	}
	c.worker.cache[id] = b
	c.worker.pulled.Store(id, b.version)
	c.engine.pulls.Add(1)
	return b.value, true
}

// StateMap is a per-partition keyed state store. Operators access it
// without locks (partition execution is serial); the map also supports
// enumeration so heartbeats can find states whose keys they do not know.
type StateMap struct {
	m map[string]any
}

// NewStateMap returns an empty state map.
func NewStateMap() *StateMap {
	return &StateMap{m: make(map[string]any)}
}

// Get returns the state under key.
func (s *StateMap) Get(key string) (any, bool) {
	v, ok := s.m[key]
	return v, ok
}

// Put stores state under key.
func (s *StateMap) Put(key string, value any) { s.m[key] = value }

// Delete removes the state under key.
func (s *StateMap) Delete(key string) { delete(s.m, key) }

// Len returns the number of stored states.
func (s *StateMap) Len() int { return len(s.m) }

// Range calls fn for every state until fn returns false.
func (s *StateMap) Range(fn func(key string, value any) bool) {
	for k, v := range s.m {
		if !fn(k, v) {
			return
		}
	}
}
