package ros

import (
	"fmt"
	"sort"
	"time"
)

// SubSpec declares one subscription of a node: the topic it listens to
// and the queue depth for that subscription. Autoware nodes typically
// use shallow queues (depth 1-10), which is exactly what makes message
// dropping observable under load.
type SubSpec struct {
	Topic string
	Depth int
}

// Subscription is a live binding of a subscriber node to a topic.
type Subscription struct {
	Topic      string
	Subscriber string
	Queue      *Queue
}

// Bus is the middleware fabric: it owns every topic and delivers
// published messages into subscriber queues. The Bus itself is
// timing-free; the platform layer decides *when* publishes happen and
// models the transport/serialization delay.
//
// Delivery is zero-copy: one envelope per publication, shared by
// pointer across every subscriber queue. A Bus is owned by one
// goroutine — the single-threaded simulator that publishes into it and
// drains it — so neither the bus nor its queues synchronize.
type Bus struct {
	topics map[string]*topicState
	// subsByNode indexes subscriptions per subscriber for executors.
	subsByNode map[string][]*Subscription
	// onDeliver, when set, observes every enqueue (see Tap).
	onDeliver func(sub *Subscription, m *Message)
}

// topicState is one topic: its subscriber queues and its two counters,
// the last sequence number (every accepted publication takes one) and
// the frames deadline shedding consumed.
type topicState struct {
	name string
	seq  uint64
	shed uint64
	subs []*Subscription
}

// NewBus creates an empty fabric owned by a single goroutine.
func NewBus() *Bus {
	return &Bus{
		topics:     make(map[string]*topicState),
		subsByNode: make(map[string][]*Subscription),
	}
}

// Subscribe registers a subscriber queue on a topic, creating the topic
// on first use.
func (b *Bus) Subscribe(nodeName string, spec SubSpec) *Subscription {
	ts := b.topic(spec.Topic)
	sub := &Subscription{
		Topic:      spec.Topic,
		Subscriber: nodeName,
		Queue:      NewQueue(spec.Depth),
	}
	ts.subs = append(ts.subs, sub)
	b.subsByNode[nodeName] = append(b.subsByNode[nodeName], sub)
	return sub
}

func (b *Bus) topic(name string) *topicState {
	ts := b.topics[name]
	if ts == nil {
		ts = &topicState{name: name}
		b.topics[name] = ts
	}
	return ts
}

// Publish assigns the topic's next sequence number and fans the
// publication out zero-copy: one envelope, holding its own copy of the
// origins, goes to every subscriber queue, and the payload is shared,
// never copied. It returns the number of subscribers reached.
func (b *Bus) Publish(topic string, stamp time.Duration, payload any, origins []Origin) int {
	ts := b.topic(topic)
	ts.seq++
	if len(ts.subs) == 0 {
		return 0
	}
	m := &Message{
		Topic:   topic,
		Header:  Header{Seq: ts.seq, Stamp: stamp, Origins: append([]Origin(nil), origins...)},
		Payload: payload,
	}
	for _, sub := range ts.subs {
		sub.Queue.Push(m)
		if b.onDeliver != nil {
			b.onDeliver(sub, m)
		}
	}
	return len(ts.subs)
}

// Tap installs the bus's one delivery observer, which fires once per
// (message, subscription) pair. onDrop must be nil. Its only user is
// cmd/bench; a later benchmark change moves it onto
// platform.Executor.Observe and deletes Tap.
func (b *Bus) Tap(onDeliver func(*Subscription, *Message), onDrop func(*Subscription, *Message)) {
	if onDrop != nil || b.onDeliver != nil {
		panic("ros: Bus.Tap takes one delivery observer and no drop observer")
	}
	b.onDeliver = onDeliver
}

// SubscriptionsOf returns the subscriptions held by a node, in
// registration order.
func (b *Bus) SubscriptionsOf(nodeName string) []*Subscription {
	return b.subsByNode[nodeName]
}

// DropReport is one row of the dropped-message table.
type DropReport struct {
	Topic      string
	Subscriber string
	Arrived    uint64
	Dropped    uint64
	Rate       float64
}

// DropReports returns drop statistics for every subscription that saw
// at least one arrival, sorted by topic then subscriber.
func (b *Bus) DropReports() []DropReport {
	var out []DropReport
	for _, ts := range b.topics {
		for _, sub := range ts.subs {
			arrived, _, dropped := sub.Queue.Stats()
			if arrived == 0 {
				continue
			}
			out = append(out, DropReport{
				Topic:      ts.name,
				Subscriber: sub.Subscriber,
				Arrived:    arrived,
				Dropped:    dropped,
				Rate:       sub.Queue.DropRate(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Topic != out[j].Topic {
			return out[i].Topic < out[j].Topic
		}
		return out[i].Subscriber < out[j].Subscriber
	})
	return out
}

// Validate checks that every topic referenced by a subscription exists
// (trivially true by construction) and that no node subscribed twice to
// the same topic, which would double-process messages.
func (b *Bus) Validate() error {
	for node, subs := range b.subsByNode {
		seen := map[string]bool{}
		for _, s := range subs {
			if seen[s.Topic] {
				return fmt.Errorf("ros: node %q subscribed twice to %q", node, s.Topic)
			}
			seen[s.Topic] = true
		}
	}
	return nil
}
