package ros

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(3)
	for i := 1; i <= 3; i++ {
		if evicted := q.Push(&Message{Header: Header{Seq: uint64(i)}}); evicted != nil {
			t.Fatalf("unexpected eviction at %d", i)
		}
	}
	for i := 1; i <= 3; i++ {
		m := q.Pop()
		if m == nil || m.Header.Seq != uint64(i) {
			t.Fatalf("pop %d = %v", i, m)
		}
	}
	if q.Pop() != nil {
		t.Error("empty pop should be nil")
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue(2)
	q.Push(&Message{Header: Header{Seq: 1}})
	q.Push(&Message{Header: Header{Seq: 2}})
	evicted := q.Push(&Message{Header: Header{Seq: 3}})
	if evicted == nil || evicted.Header.Seq != 1 {
		t.Fatalf("evicted = %v", evicted)
	}
	arrived, delivered, dropped := q.Stats()
	if arrived != 3 || dropped != 1 || delivered != 0 {
		t.Errorf("stats = %d %d %d", arrived, delivered, dropped)
	}
	if m := q.Pop(); m.Header.Seq != 2 {
		t.Errorf("head after drop = %v", m)
	}
	if got := q.DropRate(); got != 1.0/3.0 {
		t.Errorf("drop rate = %v", got)
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue(2)
	if q.Peek() != nil {
		t.Error("peek empty should be nil")
	}
	q.Push(&Message{Header: Header{Seq: 9}})
	if q.Peek().Header.Seq != 9 || q.Len() != 1 {
		t.Error("peek should not consume")
	}
}

func TestQueueDepthOne(t *testing.T) {
	q := NewQueue(1)
	q.Push(&Message{Header: Header{Seq: 1}})
	ev := q.Push(&Message{Header: Header{Seq: 2}})
	if ev == nil || ev.Header.Seq != 1 {
		t.Errorf("depth-1 eviction = %v", ev)
	}
	if q.Pop().Header.Seq != 2 {
		t.Error("latest should survive")
	}
}

func TestQueueInvariantProperty(t *testing.T) {
	f := func(ops []bool, depthRaw uint8) bool {
		depth := int(depthRaw%8) + 1
		q := NewQueue(depth)
		seq := uint64(0)
		var model []uint64 // reference FIFO
		for _, push := range ops {
			if push {
				seq++
				q.Push(&Message{Header: Header{Seq: seq}})
				model = append(model, seq)
				if len(model) > depth {
					model = model[1:]
				}
			} else {
				m := q.Pop()
				if len(model) == 0 {
					if m != nil {
						return false
					}
				} else {
					if m == nil || m.Header.Seq != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueuePanicsOnBadDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewQueue(-1)
}

func TestBusPublishDeliver(t *testing.T) {
	b := NewBus()
	s1 := b.Subscribe("nodeA", SubSpec{Topic: "/points_raw", Depth: 2})
	s2 := b.Subscribe("nodeB", SubSpec{Topic: "/points_raw", Depth: 2})
	n := b.Publish("/points_raw", time.Millisecond, "payload", nil)
	if n != 2 {
		t.Errorf("reached %d subscribers", n)
	}
	m1, m2 := s1.Queue.Pop(), s2.Queue.Pop()
	if m1 == nil || m2 == nil || m1 != m2 {
		t.Error("both subscribers should see the same message value")
	}
	if m1.Header.Seq != 1 || m1.Header.Stamp != time.Millisecond {
		t.Errorf("header = %+v", m1.Header)
	}
	// Second publish increments seq.
	b.Publish("/points_raw", 2*time.Millisecond, "p2", nil)
	if s1.Queue.Pop().Header.Seq != 2 {
		t.Error("seq should increment per topic")
	}
}

func TestBusPublishNoSubscribers(t *testing.T) {
	b := NewBus()
	if n := b.Publish("/nothing", 0, "x", nil); n != 0 {
		t.Errorf("reached %d", n)
	}
	// A publication nobody hears still takes its sequence number.
	s := b.Subscribe("late", SubSpec{Topic: "/nothing", Depth: 1})
	b.Publish("/nothing", 1, "y", nil)
	if got := s.Queue.Pop().Header.Seq; got != 2 {
		t.Errorf("seq after an unheard publication = %d, want 2", got)
	}
}

// TestBusCopiesOrigins: the envelope owns its origin list, so a caller
// that reuses its slice after publishing cannot reach a queued message.
func TestBusCopiesOrigins(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("n", SubSpec{Topic: "/t", Depth: 1})
	origins := []Origin{{Topic: "/points_raw", Stamp: 5}}
	b.Publish("/t", 10, "x", origins)
	origins[0].Stamp = 999
	m := s.Queue.Pop()
	if len(m.Header.Origins) != 1 || m.Header.Origins[0].Stamp != 5 {
		t.Fatalf("origins aliased the caller slice: %+v", m.Header.Origins)
	}
}

// TestBusObservers pins Tap's contract: one delivery observer, called
// once per (message, subscription) pair, evictions included, and no
// drop observer or second tap.
func TestBusObservers(t *testing.T) {
	b := NewBus()
	b.Subscribe("n", SubSpec{Topic: "/t", Depth: 1})
	b.Subscribe("m", SubSpec{Topic: "/t", Depth: 1})
	var delivers int
	b.Tap(func(sub *Subscription, m *Message) { delivers++ }, nil)
	b.Publish("/t", 0, 1, nil)
	b.Publish("/t", 0, 2, nil) // evicts the first from both queues
	if delivers != 4 {
		t.Errorf("delivers=%d, want 4", delivers)
	}
	for name, tap := range map[string]func(){
		"drop observer": func() { NewBus().Tap(nil, func(*Subscription, *Message) {}) },
		"second tap":    func() { b.Tap(func(*Subscription, *Message) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			tap()
		}()
	}
}

func TestBusDropReports(t *testing.T) {
	b := NewBus()
	b.Subscribe("slow", SubSpec{Topic: "/image_raw", Depth: 1})
	for i := 0; i < 10; i++ {
		b.Publish("/image_raw", time.Duration(i), i, nil)
	}
	reports := b.DropReports()
	if len(reports) != 1 {
		t.Fatalf("reports = %+v", reports)
	}
	r := reports[0]
	if r.Topic != "/image_raw" || r.Subscriber != "slow" || r.Arrived != 10 || r.Dropped != 9 {
		t.Errorf("report = %+v", r)
	}
}

func TestBusValidateDoubleSubscribe(t *testing.T) {
	b := NewBus()
	b.Subscribe("n", SubSpec{Topic: "/t", Depth: 1})
	if err := b.Validate(); err != nil {
		t.Errorf("single subscribe should validate: %v", err)
	}
	b.Subscribe("n", SubSpec{Topic: "/t", Depth: 1})
	if err := b.Validate(); err == nil {
		t.Error("double subscribe should fail validation")
	}
}

func TestMergeOrigins(t *testing.T) {
	m1 := &Message{Header: Header{Origins: []Origin{{Topic: "/points_raw", Stamp: 100}}}}
	m2 := &Message{Header: Header{Origins: []Origin{
		{Topic: "/image_raw", Stamp: 50},
		{Topic: "/points_raw", Stamp: 200},
	}}}
	merged := MergeOrigins(m1, m2, nil)
	if len(merged) != 2 {
		t.Fatalf("merged = %+v", merged)
	}
	byTopic := map[string]time.Duration{}
	for _, o := range merged {
		byTopic[o.Topic] = o.Stamp
	}
	if byTopic["/points_raw"] != 100 {
		t.Errorf("earliest stamp should win: %v", byTopic["/points_raw"])
	}
	if byTopic["/image_raw"] != 50 {
		t.Errorf("image origin = %v", byTopic["/image_raw"])
	}
}

func TestBagRoundTrip(t *testing.T) {
	RegisterBagType("")
	var buf bytes.Buffer
	w, err := NewBagWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []BagRecord{
		{Topic: "/b", Stamp: 20, Payload: "two"},
		{Topic: "/a", Stamp: 10, Payload: "one"},
		{Topic: "/c", Stamp: 30, Payload: "three"},
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}
	r, err := NewBagReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	// ReadAll sorts by stamp.
	if got[0].Topic != "/a" || got[1].Topic != "/b" || got[2].Topic != "/c" {
		t.Errorf("order = %v %v %v", got[0].Topic, got[1].Topic, got[2].Topic)
	}
	if got[0].Payload != "one" {
		t.Errorf("payload = %v", got[0].Payload)
	}
}

func TestBagReaderRejectsGarbage(t *testing.T) {
	if _, err := NewBagReader(bytes.NewReader([]byte("not a bag"))); err == nil {
		t.Error("garbage should fail")
	}
}

func TestBagNextEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBagWriter(&buf)
	_ = w
	r, err := NewBagReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

// TestTopicStats pins the bus's per-topic counters: Messages is the
// number of accepted publications, subscribed or not, and a subscribed
// topic with neither a publication nor a shed is left out.
func TestTopicStats(t *testing.T) {
	b := NewBus()
	if s := b.TopicStats(); len(s) != 0 {
		t.Errorf("stats of an empty bus = %+v", s)
	}
	b.Subscribe("n", SubSpec{Topic: "/t", Depth: 4})
	b.Subscribe("n", SubSpec{Topic: "/idle", Depth: 4})
	for i := 0; i <= 10; i++ {
		b.Publish("/t", time.Duration(i)*100*time.Millisecond, "xxxx", nil)
	}
	b.Publish("/unsubscribed", time.Second, 1, nil)
	b.Publish("/unsubscribed", time.Second, 2, nil)

	want := []TopicStats{
		{Topic: "/t", Messages: 11},
		{Topic: "/unsubscribed", Messages: 2},
	}
	if got := b.TopicStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestTopicStatsSpanRobustness covers the two inputs that used to bend
// a topic's observed span, a counter recorded before any publication
// and stamps from a skewed clock, and pins that the counters the bus
// keeps still come out right: a shed before the first publication
// counts, a topic with only sheds is listed, and out-of-order stamps
// are each one accepted publication.
func TestTopicStatsSpanRobustness(t *testing.T) {
	b := NewBus()
	b.Subscribe("n", SubSpec{Topic: "/t", Depth: 4})

	// Counters land before the first publication ever happens.
	b.RecordShed("/t")
	b.RecordShed("/shed-only")

	// Stamps arrive out of order (skewed clock): 5s, 2s, 9s.
	b.Publish("/t", 5*time.Second, "x", nil)
	b.Publish("/t", 2*time.Second, "x", nil)
	b.Publish("/t", 9*time.Second, "x", nil)

	want := []TopicStats{
		{Topic: "/shed-only", Shed: 1},
		{Topic: "/t", Messages: 3, Shed: 1},
	}
	if got := b.TopicStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}
