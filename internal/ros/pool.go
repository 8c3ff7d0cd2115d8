package ros

import "time"

// Pool recycles Message envelopes so the steady-state publish path
// allocates nothing: the topic string, header, origin storage and
// refcount live in a reused envelope, while payloads stay caller-owned
// and are never recycled (layers like the watchdog's last-good cache
// and the burst injector's replay buffer legitimately retain payload
// pointers long after the envelope is reused).
//
// Lifecycle: Bus.NewMessage hands out an envelope holding one
// reference; Bus.PublishMessage converts that reference into one per
// subscriber queue; Queue.Pop transfers a queue's reference to the
// consumer; Release drops a reference. At zero references the envelope
// retires into a limbo generation rather than returning to the free
// list immediately — epoch-based reclamation. The bus advances the
// epoch once per publication, and an envelope becomes reusable only
// after two advances, so any reader that held a borrowed pointer
// during the publication that released it (an observer tap, a peeked
// queue head) never sees the envelope rewritten mid-event.
//
// A Pool belongs to its bus's goroutine and does no synchronization,
// matching the deterministic simulator.
type Pool struct {
	free  []*Message
	limbo [limboGenerations][]*Message
	epoch uint64

	acquired uint64
	liveMsgs int64
	liveRefs int64
}

// limboGenerations is the number of retirement buckets: an envelope
// retired at epoch E rejoins the free list when the epoch reaches E+2,
// so with rotation one spare bucket is needed.
const limboGenerations = 3

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// PoolStats is a point-in-time accounting snapshot.
type PoolStats struct {
	// Acquired counts envelopes handed out since creation (including
	// recycled reuses).
	Acquired uint64
	// Live counts envelopes currently holding at least one reference.
	Live int64
	// LiveRefs is the total outstanding reference count across all
	// live envelopes. Zero means no layer is holding transport memory.
	LiveRefs int64
	// Idle counts envelopes parked in the free list or in limbo.
	Idle int
	// Epoch is the current reclamation epoch.
	Epoch uint64
}

// Stats returns the pool's accounting snapshot.
func (p *Pool) Stats() PoolStats {
	idle := len(p.free)
	for _, g := range p.limbo {
		idle += len(g)
	}
	return PoolStats{
		Acquired: p.acquired,
		Live:     p.liveMsgs,
		LiveRefs: p.liveRefs,
		Idle:     idle,
		Epoch:    p.epoch,
	}
}

// get acquires an envelope holding one reference, with the header
// populated and the origin lineage copied into pool-owned storage (so
// the envelope never aliases a caller slice across recycling).
func (p *Pool) get(topic string, stamp time.Duration, payload any, origins []Origin) *Message {
	var m *Message
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		m = &Message{}
	}
	m.pool = p
	m.refs = 1
	m.Topic = topic
	m.Header.Seq = 0
	m.Header.Stamp = stamp
	m.Header.FrameID = ""
	m.Header.Origins = append(m.Header.Origins[:0], origins...)
	m.Payload = payload
	p.acquired++
	p.liveMsgs++
	p.liveRefs++
	return m
}

// advance rotates the reclamation epoch: envelopes retired two epochs
// ago rejoin the free list.
func (p *Pool) advance() {
	p.epoch++
	b := (p.epoch + 1) % limboGenerations
	if len(p.limbo[b]) > 0 {
		p.free = append(p.free, p.limbo[b]...)
		for i := range p.limbo[b] {
			p.limbo[b][i] = nil
		}
		p.limbo[b] = p.limbo[b][:0]
	}
}

// retire parks a zero-reference envelope in the current limbo
// generation.
func (p *Pool) retire(m *Message) {
	p.liveMsgs--
	m.Payload = nil
	b := p.epoch % limboGenerations
	p.limbo[b] = append(p.limbo[b], m)
}
