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
// scheduler picks last, peeking queue heads without popping. The bus
// has one delivery observer (Bus.Tap), which never vetoes, and no drop
// observer.
//
// Ownership. A publication is one envelope, shared by pointer with
// every subscriber queue: the header and its origins are read-only once
// published, and payloads are shared across subscribers and never
// copied.
//
// Accounting. The bus counts two frame fates per topic, accepted
// publications and deadline sheds (Bus.TopicStats), and each subscriber
// queue counts its drop-oldest evictions (Bus.DropReports). Every other
// fate is counted by the layer that decides it (DESIGN.md §8).
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

// Message is one datum flowing through the graph. A message the bus
// delivered is shared by every subscriber queue that took it, so it is
// read-only.
type Message struct {
	Topic   string
	Header  Header
	Payload any
}

// String implements fmt.Stringer.
func (m *Message) String() string {
	return fmt.Sprintf("msg{%s seq=%d t=%v}", m.Topic, m.Header.Seq, m.Header.Stamp)
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
