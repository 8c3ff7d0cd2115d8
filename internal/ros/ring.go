package ros

// ring is the slot store under a subscriber queue: a power-of-two
// array of messages indexed by two monotonically increasing cursors,
// head (next slot to pop) and tail (next slot to fill). The cursors
// only ever grow, so wraparound is a mask, and len is tail-head.
//
// Beyond FIFO push/pop, a ROS subscriber queue needs drop-oldest
// eviction, stamp-ordered insertion and unbounded growth; those
// rewrite interior slots or move both cursors. Like the queue that
// wraps it, a ring is owned by one goroutine.
type ring struct {
	buf  []*Message
	mask uint64
	head uint64 // next slot to pop
	tail uint64 // next slot to fill
}

// init sizes the ring to hold at least capacity elements.
func (r *ring) init(capacity int) {
	c := 1
	for c < capacity {
		c <<= 1
	}
	r.buf = make([]*Message, c)
	r.mask = uint64(c - 1)
}

// len reports the number of queued elements.
func (r *ring) len() int { return int(r.tail - r.head) }

// full reports whether every slot is occupied.
func (r *ring) full() bool { return r.tail-r.head == uint64(len(r.buf)) }

// tryPush appends m; it returns false when the ring is full.
func (r *ring) tryPush(m *Message) bool {
	if r.full() {
		return false
	}
	r.buf[r.tail&r.mask] = m
	r.tail++
	return true
}

// pop removes and returns the oldest element, or nil when empty. The
// slot is cleared so the ring keeps no stale pointer alive.
func (r *ring) pop() *Message {
	if r.head == r.tail {
		return nil
	}
	m := r.buf[r.head&r.mask]
	r.buf[r.head&r.mask] = nil
	r.head++
	return m
}

// peek returns the oldest element without removing it.
func (r *ring) peek() *Message {
	if r.head == r.tail {
		return nil
	}
	return r.buf[r.head&r.mask]
}

// newest returns the most recently pushed element, or nil when empty.
func (r *ring) newest() *Message {
	if r.head == r.tail {
		return nil
	}
	return r.buf[(r.tail-1)&r.mask]
}

// insertSorted places m before every queued element with a strictly
// later stamp — the out-of-order arrival path of the stamp-ordered
// queue contract (stable for equal stamps: insertion stops at <=).
// The caller ensures the ring is not full.
func (r *ring) insertSorted(m *Message) {
	i := r.tail
	for i > r.head {
		prev := r.buf[(i-1)&r.mask]
		if prev.Header.Stamp <= m.Header.Stamp {
			break
		}
		r.buf[i&r.mask] = prev
		i--
	}
	r.buf[i&r.mask] = m
	r.tail++
}

// grow doubles the slot array, unrolling so the oldest element lands
// at index 0 — the unbounded (queue_size=0) growth path.
func (r *ring) grow() {
	old := r.buf
	n := r.tail - r.head
	next := make([]*Message, 2*len(old))
	for i := uint64(0); i < n; i++ {
		next[i] = old[(r.head+i)&r.mask]
	}
	r.buf = next
	r.mask = uint64(len(next) - 1)
	r.head = 0
	r.tail = n
}
