// Package ros implements the publish-subscribe middleware the stack is
// built on, mirroring the ROS 1 structures the paper's methodology
// depends on: named topics, per-subscriber bounded queues that drop the
// oldest message when full (the source of Table III's dropped-message
// statistics), and message headers that carry origin lineage so
// end-to-end computation paths can be traced through the graph.
//
// Hook points and ordering. The bus is the substrate the executor's
// decision chain hangs off: the fault injector perturbs at publish
// (upstream of the transport), the guard adjudicates at ingress (after
// transport, before any subscriber queue — a quarantined frame is
// never enqueued), the supervisor filters at dispatch, and the
// scheduler picks last, peeking queue heads without popping. Observers
// (taps, drop hooks) chain and never veto.
//
// Ownership. Message envelopes are pooled and reference-counted: one
// writer per topic publishes the same envelope to every subscriber
// queue (zero copies), each consumption point — queue eviction,
// quarantine, deadline shed, callback-filter drop, callback completion
// — returns exactly one reference, and long-lived holders (fusion's
// latest-input caches) must Retain/Release explicitly. Hook borrowers
// may read an envelope only for the duration of the call; epoch-based
// reclamation keeps a just-released envelope stable until two further
// publications pass. Payloads are never pooled and may be retained
// indefinitely. Double release and retain-after-free panic, naming the
// topic.
package ros

import (
	"fmt"
	"time"
)

// Origin identifies where a piece of data entered the system: the
// sensor topic it arrived on and the virtual time of arrival. Origins
// propagate through every node so the tracer can measure each
// computation path from sensor input to final perception output.
type Origin struct {
	Topic string
	Stamp time.Duration
}

// Header carries the metadata attached to every message.
type Header struct {
	// Seq is the per-topic sequence number.
	Seq uint64
	// Stamp is the virtual time at which the message was published.
	Stamp time.Duration
	// FrameID names the coordinate frame of the payload.
	FrameID string
	// Origins lists the sensor inputs this message derives from.
	Origins []Origin
}

// Message is one datum flowing through the graph.
//
// Messages published through a Bus are pooled envelopes: the payload
// is shared zero-copy across every subscriber, and the envelope is
// reference-counted — one reference per subscriber queue, transferred
// to the consumer by Pop and returned with Release. Messages
// constructed directly (tests, tools) have no pool and ignore the
// reference operations entirely.
type Message struct {
	Topic   string
	Header  Header
	Payload any

	// pool and refs implement pooled-envelope lifetime; both are nil /
	// unused for directly constructed messages.
	pool *Pool
	refs int32
}

// String implements fmt.Stringer.
func (m *Message) String() string {
	return fmt.Sprintf("msg{%s seq=%d t=%v}", m.Topic, m.Header.Seq, m.Header.Stamp)
}

// Retain adds a reference to a pooled message. A layer that stores a
// message across callbacks (e.g. the fusion node's last-good caches)
// must retain it, or the envelope will be recycled out from under it.
// No-op for unpooled messages.
func (m *Message) Retain() {
	p := m.pool
	if p == nil {
		return
	}
	if m.refs <= 0 {
		panic(fmt.Sprintf("ros: retain of already-released message on topic %q (seq %d)", m.Topic, m.Header.Seq))
	}
	m.refs++
	p.liveRefs++
}

// Release drops one reference to a pooled message; at zero the
// envelope retires to the pool's limbo for epoch-based reuse.
// Releasing more times than retained panics, naming the topic — a
// lifetime bug in a transport layer must be loud, not a silent
// use-after-recycle. No-op for unpooled messages.
func (m *Message) Release() {
	p := m.pool
	if p == nil {
		return
	}
	if m.refs <= 0 {
		panic(fmt.Sprintf("ros: double release of message on topic %q (seq %d)", m.Topic, m.Header.Seq))
	}
	m.refs--
	p.liveRefs--
	if m.refs == 0 {
		p.retire(m)
	}
}

// addRefs adds n references in one step — the bus's fan-out path
// converting its single acquisition reference into one per subscriber
// queue.
func (m *Message) addRefs(n int) {
	p := m.pool
	if p == nil || n == 0 {
		return
	}
	m.refs += int32(n)
	p.liveRefs += int64(n)
}

// MergeOrigins returns the union of the origins of several input
// messages, keeping the earliest stamp per topic. A node that fuses two
// streams (e.g. range_vision_fusion) produces outputs that trace back to
// both sensor inputs.
func MergeOrigins(inputs ...*Message) []Origin {
	seen := make(map[string]time.Duration)
	var order []string
	for _, in := range inputs {
		if in == nil {
			continue
		}
		for _, o := range in.Header.Origins {
			if prev, ok := seen[o.Topic]; !ok {
				seen[o.Topic] = o.Stamp
				order = append(order, o.Topic)
			} else if o.Stamp < prev {
				seen[o.Topic] = o.Stamp
			}
		}
	}
	out := make([]Origin, 0, len(order))
	for _, topic := range order {
		out = append(out, Origin{Topic: topic, Stamp: seen[topic]})
	}
	return out
}
