package ros

import "sort"

// TopicStats counts one topic's accepted publications and the frames
// deadline shedding consumed from it.
type TopicStats struct {
	Topic string
	// Messages counts accepted publications: the topic's last sequence
	// number. A quarantined frame takes none, so it is not counted here.
	Messages uint64
	// Shed counts frames consumed at dispatch by deadline-aware load
	// shedding (the executor's ShedBudget) instead of being processed.
	Shed uint64
}

// RecordShed counts one deadline-shed frame against a topic.
func (b *Bus) RecordShed(topic string) { b.topic(topic).shed++ }

// TopicStats returns the counters of every topic with at least one
// publication or shed, sorted by topic name.
func (b *Bus) TopicStats() []TopicStats {
	var out []TopicStats
	for _, ts := range b.topics {
		if ts.seq > 0 || ts.shed > 0 {
			out = append(out, TopicStats{Topic: ts.name, Messages: ts.seq, Shed: ts.shed})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}
