package server

import (
	"context"
	"errors"
	"sync"
)

// errSaturated is returned by fairShare.acquire when the caller's queue
// bound (per-tenant or global) overflows; handlers translate it into
// 429 + Retry-After.
var errSaturated = errors.New("server: admission queue full")

// fairShare is a weighted deficit-round-robin (WDRR) slot scheduler: a
// fixed pool of execution slots arbitrated across per-tenant FIFO
// queues. Each round the cursor visits every backlogged tenant, credits
// its deficit counter by its weight, and grants one slot per unit of
// deficit — so over any busy interval tenants receive slots in
// proportion to their weights, an idle tenant's share is redistributed,
// and a flooding tenant can grow only its own queue. Two instances run
// in the server: the request-admission gate (quota and shed bounds
// enforced) and the engine point gate (weights only, no shedding).
//
// The scheduler also closes the cancel-while-queued race of the old
// semaphore gate: an abandoning waiter leaves the pending count
// immediately under the lock, and when a grant races with the
// cancellation the granted slot is handed straight to the next waiter
// instead of leaking until timeout.
type fairShare struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	// quota enforces per-tenant MaxConcurrent and, in acquire, the
	// per-tenant (and global) queue bounds; it is on for the admission
	// gate and off for the engine point gate.
	quota bool
	// globalQueue bounds total pending waiters when shedding (the
	// server's memory bound, exactly the old admission MaxQueue);
	// defaultQueue bounds one tenant with no MaxQueue of its own.
	globalQueue  int
	defaultQueue int

	waiting int // pending (non-abandoned) waiters across all queues
	queues  map[string]*fsQueue
	ring    []*fsQueue // round-robin order over backlogged queues
	cursor  int
}

// fsQueue is one tenant's scheduling state.
type fsQueue struct {
	tenant  *tenantState
	waiters []*fsWaiter
	pending int // non-abandoned waiters
	inUse   int // slots this tenant currently holds
	deficit float64
	ringed  bool
}

// fsWaiter is one queued acquisition. granted/abandoned are written and
// read only under fairShare.mu; ready is closed exactly once, on grant.
type fsWaiter struct {
	queue     *fsQueue
	ready     chan struct{}
	granted   bool
	abandoned bool
}

// newFairShare builds a scheduler over capacity slots. With quota the
// per-tenant concurrency/queue limits apply and overflow is shed with
// errSaturated; without, waiters only ever block or follow their
// context.
func newFairShare(capacity int, quota bool, globalQueue, defaultQueue int) *fairShare {
	return &fairShare{
		capacity:     capacity,
		quota:        quota,
		globalQueue:  globalQueue,
		defaultQueue: defaultQueue,
		queues:       make(map[string]*fsQueue),
	}
}

// setCapacity resizes the slot pool (used once at startup when the pool
// size is only known after the engine is built). Shrinking strands no
// slots: holders drain naturally and dispatch honors the new bound.
func (f *fairShare) setCapacity(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.capacity = n
	f.dispatchLocked()
}

// acquire obtains one slot for tenant t, blocking in t's queue until the
// scheduler grants it, ctx ends, or (shedding gates only) a queue bound
// overflows. On nil error the caller owns a slot and must call the
// returned release exactly once.
func (f *fairShare) acquire(ctx context.Context, t *tenantState) (func(), error) {
	return f.acquireShed(ctx, t, f.quota)
}

// acquireWait is acquire without the shed bounds: the caller waits for
// its fair turn no matter how deep the queues are. Job runners use it —
// their queue is disk-backed, so depth costs no memory, but quota and
// weighted ordering still apply.
func (f *fairShare) acquireWait(ctx context.Context, t *tenantState) (func(), error) {
	return f.acquireShed(ctx, t, false)
}

func (f *fairShare) acquireShed(ctx context.Context, t *tenantState, shed bool) (func(), error) {
	f.mu.Lock()
	q := f.queueLocked(t)
	if shed {
		// Bounds only matter when the request would actually wait: a free
		// slot under quota is granted by dispatch before anyone queues.
		wouldWait := f.inUse >= f.capacity || f.waiting > 0 || f.quotaBlockedLocked(q)
		if wouldWait && (f.waiting >= f.globalQueue || q.pending >= f.queueBoundLocked(q)) {
			f.mu.Unlock()
			return nil, errSaturated
		}
	}
	w := &fsWaiter{queue: q, ready: make(chan struct{})}
	q.waiters = append(q.waiters, w)
	q.pending++
	f.waiting++
	if !q.ringed {
		q.ringed = true
		f.ring = append(f.ring, q)
	}
	f.dispatchLocked()
	f.mu.Unlock()

	select {
	case <-w.ready:
		return func() { f.release(q) }, nil
	case <-ctx.Done():
		f.mu.Lock()
		if w.granted {
			// The grant raced with the cancellation: hand the slot straight
			// to the next waiter rather than leaking it to this dead request.
			f.inUse--
			q.inUse--
			f.dispatchLocked()
			f.mu.Unlock()
			return nil, ctx.Err()
		}
		// Leave the pending counts immediately; the queue slice entry is
		// pruned lazily by dispatch.
		w.abandoned = true
		q.pending--
		f.waiting--
		f.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release returns a slot to the pool and dispatches the next waiters.
func (f *fairShare) release(q *fsQueue) {
	f.mu.Lock()
	f.inUse--
	q.inUse--
	f.dispatchLocked()
	f.mu.Unlock()
}

// inUseCount returns the number of occupied slots.
func (f *fairShare) inUseCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inUse
}

// waitingCount returns the number of pending waiters.
func (f *fairShare) waitingCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waiting
}

// queueLocked finds or creates t's queue.
func (f *fairShare) queueLocked(t *tenantState) *fsQueue {
	q := f.queues[t.name]
	if q == nil {
		q = &fsQueue{tenant: t}
		f.queues[t.name] = q
	}
	return q
}

// quotaBlockedLocked reports whether t's concurrency quota forbids
// another grant right now.
func (f *fairShare) quotaBlockedLocked(q *fsQueue) bool {
	if !f.quota {
		return false
	}
	max := q.tenant.config().MaxConcurrent
	return max > 0 && q.inUse >= max
}

// queueBoundLocked returns t's pending-waiter bound.
func (f *fairShare) queueBoundLocked(q *fsQueue) int {
	if max := q.tenant.config().MaxQueue; max > 0 {
		return max
	}
	return f.defaultQueue
}

// dispatchLocked runs the WDRR round: while slots are free and queues
// are backlogged, visit queues in ring order, credit each freshly
// visited queue's deficit by its weight, and grant slots while the
// deficit covers them. A queue that empties leaves the ring with its
// deficit reset (DRR's anti-hoarding rule); a quota-blocked queue is
// skipped without credit so its share is not banked while it cannot use
// it.
//
// When the pool fills mid-budget the cursor stays parked on the current
// queue (without re-crediting it on resume), so a slot released later
// continues that queue's turn — otherwise every one-slot-at-a-time
// release cycle would degenerate to unweighted round-robin, granting a
// weight-3 tenant exactly as much as a weight-1 one.
func (f *fairShare) dispatchLocked() {
	idle := 0 // consecutive ring visits that granted nothing
	for f.inUse < f.capacity && len(f.ring) > 0 && idle < len(f.ring) {
		if f.cursor >= len(f.ring) {
			f.cursor = 0
		}
		q := f.ring[f.cursor]
		f.pruneLocked(q)
		if len(q.waiters) == 0 {
			f.dropFromRingLocked()
			continue
		}
		if f.quotaBlockedLocked(q) {
			f.cursor++
			idle++
			continue
		}
		if q.deficit < 1 {
			// A fresh visit: leftover deficit ≥ 1 means the last visit was
			// cut short by pool capacity and the budget is still live.
			q.deficit += float64(fsWeight(q))
		}
		served := false
		for len(q.waiters) > 0 && q.deficit >= 1 && f.inUse < f.capacity && !f.quotaBlockedLocked(q) {
			w := q.waiters[0]
			q.waiters = q.waiters[1:]
			if w.abandoned {
				continue
			}
			q.deficit--
			q.pending--
			f.waiting--
			w.granted = true
			close(w.ready)
			f.inUse++
			q.inUse++
			served = true
		}
		f.pruneLocked(q)
		if len(q.waiters) == 0 {
			f.dropFromRingLocked()
			continue
		}
		if q.deficit >= 1 && f.inUse >= f.capacity && !f.quotaBlockedLocked(q) {
			// Parked mid-budget by capacity: keep the cursor here so the
			// next release resumes this queue's turn.
			return
		}
		f.cursor++
		if served {
			idle = 0
		} else {
			idle++
		}
	}
}

// pruneLocked drops abandoned waiters from the front of q.
func (f *fairShare) pruneLocked(q *fsQueue) {
	for len(q.waiters) > 0 && q.waiters[0].abandoned {
		q.waiters = q.waiters[1:]
	}
}

// dropFromRingLocked removes the queue under the cursor from the ring,
// resetting its deficit. The cursor then addresses the next queue.
func (f *fairShare) dropFromRingLocked() {
	q := f.ring[f.cursor]
	q.deficit = 0
	q.ringed = false
	f.ring = append(f.ring[:f.cursor], f.ring[f.cursor+1:]...)
}

// fsWeight is q's current fair-share weight (≥ 1 after config
// normalization; the anonymous identity defaults likewise).
func fsWeight(q *fsQueue) int {
	w := q.tenant.config().Weight
	if w <= 0 {
		return DefaultTenantWeight
	}
	return w
}
