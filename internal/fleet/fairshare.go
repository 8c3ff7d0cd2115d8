package fleet

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// TenantLimit is one tenant's admission contract: Rate is the
// token-bucket refill in jobs/second (0 = unlimited), Burst the bucket
// capacity (0 = the service default), Weight the deficit-round-robin
// share (0 = 1; a weight-2 tenant is dispatched twice per round).
// Limits set at runtime are journaled, so they survive restarts.
type TenantLimit struct {
	Rate   float64 `json:"rate"`
	Burst  int     `json:"burst,omitempty"`
	Weight int     `json:"weight,omitempty"`
}

// ThrottleError rejects a submission that exceeded its tenant's rate
// limit; RetryAfter is when the bucket next holds a whole token. It
// matches ErrTenantThrottled and surfaces as an HTTP 429 whose
// Retry-After header is RetryAfter rounded up to whole seconds.
type ThrottleError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("fleet: tenant %q rate limit exceeded (retry in %s)", e.Tenant, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrTenantThrottled) match.
func (e *ThrottleError) Unwrap() error { return ErrTenantThrottled }

// bucket is one tenant's token bucket. First use primes it full, so a
// tenant's initial burst up to Burst is admitted before the rate
// gate engages.
type bucket struct {
	tokens float64
	last   time.Time
	primed bool
}

// take refills by elapsed wall clock and spends one token. When the
// bucket is dry it reports how long until a whole token accrues.
func (b *bucket) take(now time.Time, rate float64, burst int) (time.Duration, bool) {
	if rate <= 0 {
		return 0, true
	}
	if burst < 1 {
		burst = 1
	}
	if !b.primed {
		b.tokens = float64(burst)
		b.last = now
		b.primed = true
	}
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += rate * elapsed
		if b.tokens > float64(burst) {
			b.tokens = float64(burst)
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	return wait, false
}

// tenantQ is one tenant's pending queue (priority-ordered within the
// tenant) plus its deficit-round-robin credit.
type tenantQ struct {
	heap    jobHeap
	deficit float64
}

// admitQueue is the pending-job structure behind fair-share admission:
// per-tenant token-bucket rate limits at the door (bucket) and
// deficit-round-robin dispatch behind it, so one tenant's burst fills
// only its own queue and costs only its own turns. Each tenant owns a
// heap (priority desc, ID asc), and dispatch walks an
// activation ring: a tenant at the head earns Weight credits and is
// served while credit lasts, then the ring advances — so a tenant that
// queued 100 jobs still yields the next turn to every other active
// tenant. With one tenant this is plain priority order. Total occupancy
// is still bounded by the service's global QueueDepth.
type admitQueue struct {
	weight  func(tenant string) int
	tenants map[string]*tenantQ
	ring    []string // active (non-empty) tenants, activation order
	ringIdx int
	size    int
}

func newAdmitQueue(weight func(string) int) *admitQueue {
	return &admitQueue{weight: weight, tenants: make(map[string]*tenantQ)}
}

// Len is the total number of queued jobs across tenants.
func (q *admitQueue) Len() int { return q.size }

// push enqueues an admitted record, activating its tenant if needed.
func (q *admitQueue) push(rec *Record) {
	q.size++
	tq := q.tenants[rec.Tenant]
	if tq == nil {
		tq = &tenantQ{}
		q.tenants[rec.Tenant] = tq
	}
	if tq.heap.Len() == 0 {
		q.ring = append(q.ring, rec.Tenant)
	}
	heap.Push(&tq.heap, rec)
}

// pop dequeues the next record to dispatch, or nil if empty.
func (q *admitQueue) pop() *Record {
	if q.size == 0 {
		return nil
	}
	for len(q.ring) > 0 {
		if q.ringIdx >= len(q.ring) {
			q.ringIdx = 0
		}
		name := q.ring[q.ringIdx]
		tq := q.tenants[name]
		if tq == nil || tq.heap.Len() == 0 {
			q.deactivate(q.ringIdx)
			continue
		}
		if tq.deficit < 1 {
			w := 1
			if q.weight != nil {
				if got := q.weight(name); got > 1 {
					w = got
				}
			}
			tq.deficit += float64(w)
		}
		rec := heap.Pop(&tq.heap).(*Record)
		tq.deficit--
		q.size--
		if tq.heap.Len() == 0 {
			q.deactivate(q.ringIdx)
		} else if tq.deficit < 1 {
			q.ringIdx++
		}
		return rec
	}
	return nil
}

// deactivate removes ring[i], keeping the rotation position stable.
func (q *admitQueue) deactivate(i int) {
	name := q.ring[i]
	if tq := q.tenants[name]; tq != nil {
		tq.deficit = 0
	}
	q.ring = append(q.ring[:i], q.ring[i+1:]...)
	if q.ringIdx > i {
		q.ringIdx--
	}
	if q.ringIdx >= len(q.ring) {
		q.ringIdx = 0
	}
}

// evictBelow removes every queued job with priority below the floor
// (the shedding ladder's queue eviction), returning them in admission
// order for deterministic finish accounting.
func (q *admitQueue) evictBelow(floor int) []*Record {
	var shed []*Record
	names := make([]string, 0, len(q.tenants))
	for name := range q.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tq := q.tenants[name]
		var keep jobHeap
		for _, rec := range tq.heap {
			if rec.Job.Priority < floor {
				shed = append(shed, rec)
			} else {
				keep = append(keep, rec)
			}
		}
		tq.heap = keep
		heap.Init(&tq.heap)
	}
	if len(shed) > 0 {
		q.rebuildRing()
	}
	q.size -= len(shed)
	sort.Slice(shed, func(i, j int) bool { return shed[i].ID < shed[j].ID })
	return shed
}

// drain removes and returns every queued job in admission order (the
// non-durable shutdown path fails them explicitly).
func (q *admitQueue) drain() []*Record {
	var out []*Record
	for _, tq := range q.tenants {
		out = append(out, tq.heap...)
		tq.heap = nil
		tq.deficit = 0
	}
	q.ring = nil
	q.ringIdx = 0
	q.size = 0
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// rebuildRing drops emptied tenants from the rotation after eviction.
func (q *admitQueue) rebuildRing() {
	var ring []string
	for _, name := range q.ring {
		if tq := q.tenants[name]; tq != nil && tq.heap.Len() > 0 {
			ring = append(ring, name)
		} else if tq != nil {
			tq.deficit = 0
		}
	}
	q.ring = ring
	q.ringIdx = 0
}
