package ros

// Queue is a bounded queue of messages with ROS subscriber semantics:
// when a new message arrives at a full queue, the oldest queued message
// is dropped to make room. Dropped and delivered counts feed the
// dropped-message statistics of Table III. A depth of zero means
// unbounded (ROS's queue_size=0 convention): the queue grows and never
// drops.
//
// Delivery order is by header stamp, not arrival order: Push inserts in
// non-decreasing stamp order (stable for duplicate stamps, preserving
// arrival order among equals), so Peek/Pop always yield the oldest
// stamp and drop-oldest always evicts it. For in-order streams this is
// plain FIFO at O(1); it only differs — and only deterministically —
// when stamps arrive out of order (skewed clocks, uneven transport delays),
// where arrival-order FIFO used to let a newer frame block an older one
// and drop-oldest could evict the wrong frame.
//
// The storage is a ring buffer (see ring.go) owned, like the bus, by a
// single goroutine: push and pop take no lock and run no atomic
// instruction.
type Queue struct {
	r     ring
	depth int // 0 = unbounded

	delivered uint64 // total pushes that ultimately got consumed or queued
	dropped   uint64 // messages evicted before consumption
	arrived   uint64 // total pushes
}

// NewQueue creates a queue with the given depth; 0 means unbounded.
// Negative depths panic.
func NewQueue(depth int) *Queue {
	if depth < 0 {
		panic("ros: queue depth must be >= 0")
	}
	capacity := depth
	if depth == 0 {
		capacity = 8 // initial storage for the unbounded case
	}
	q := &Queue{depth: depth}
	q.r.init(capacity)
	return q
}

// Push enqueues m in stamp order, evicting the oldest message when
// full. It returns the evicted message (nil when nothing was dropped,
// always nil for unbounded queues).
func (q *Queue) Push(m *Message) *Message {
	q.arrived++
	var evicted *Message
	if q.depth > 0 {
		if q.r.len() == q.depth {
			evicted = q.r.pop()
			q.dropped++
		}
	} else if q.r.full() {
		q.r.grow()
	}
	// In-order arrival (the overwhelmingly common case) is a plain
	// append; only out-of-order stamps pay for the sorted insert.
	if last := q.r.newest(); last == nil || last.Header.Stamp <= m.Header.Stamp {
		q.r.tryPush(m)
	} else {
		q.r.insertSorted(m)
	}
	return evicted
}

// Pop removes and returns the oldest message, or nil when empty.
func (q *Queue) Pop() *Message {
	m := q.r.pop()
	if m != nil {
		q.delivered++
	}
	return m
}

// Peek returns the oldest message without removing it, or nil.
func (q *Queue) Peek() *Message { return q.r.peek() }

// Len returns the number of queued messages.
func (q *Queue) Len() int { return q.r.len() }

// Depth returns the configured capacity (0 = unbounded).
func (q *Queue) Depth() int { return q.depth }

// Stats returns (arrived, delivered, dropped) counts.
func (q *Queue) Stats() (arrived, delivered, dropped uint64) {
	return q.arrived, q.delivered, q.dropped
}

// DropRate returns dropped/arrived in [0, 1]; 0 when nothing arrived.
func (q *Queue) DropRate() float64 {
	if q.arrived == 0 {
		return 0
	}
	return float64(q.dropped) / float64(q.arrived)
}
