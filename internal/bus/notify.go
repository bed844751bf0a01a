package bus

import (
	"sync"
	"sync/atomic"
)

// notifier parks the goroutines blocked in Consumer.Wait or Poll on one
// topic. A publish to any of the topic's partitions, and any rewind of a
// read offset in it, wakes every parked waiter; there is no re-check
// interval. A publish that nobody waits on pays one atomic load.
//
// A waiter registers before it re-checks for unread messages, and a
// publisher appends before it loads the count, so a message published
// between the check and the park is never missed: either the check sees
// it, or the publisher sees the registration.
type notifier struct {
	n       atomic.Int32 // len(waiters), readable without mu
	mu      sync.Mutex
	waiters []*waiter
}

// waiter is one parked Wait. Its channel holds at most one pending wake,
// so a wake never blocks the publisher; waiters are pooled, so a steady
// stream of waits allocates no channel, goroutine or timer.
type waiter struct{ ch chan struct{} }

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

func (nt *notifier) add(w *waiter) {
	nt.mu.Lock()
	nt.waiters = append(nt.waiters, w)
	nt.n.Store(int32(len(nt.waiters)))
	nt.mu.Unlock()
}

func (nt *notifier) remove(w *waiter) {
	nt.mu.Lock()
	for i, o := range nt.waiters {
		if o == w {
			last := len(nt.waiters) - 1
			nt.waiters[i] = nt.waiters[last]
			nt.waiters[last] = nil
			nt.waiters = nt.waiters[:last]
			break
		}
	}
	nt.n.Store(int32(len(nt.waiters)))
	nt.mu.Unlock()
}

// wake releases every parked waiter.
func (nt *notifier) wake() {
	if nt.n.Load() == 0 {
		return
	}
	nt.mu.Lock()
	for _, w := range nt.waiters {
		select {
		case w.ch <- struct{}{}:
		default: // a wake is already pending
		}
	}
	nt.mu.Unlock()
}
