// Package guard is the bus-level input-integrity layer: a chain of
// payload validation and time sanitization that sits at the executor's
// ingress point — after transport, before any subscriber queue — and
// quarantines frames a corrupted sensor or transport produced.
//
// Hook point and ordering. The guard owns the executor's IngressFilter
// and is the second layer in the decision chain — the fault injector
// perturbs at publish upstream of it; the supervisor (dispatch) and
// the scheduler (the pick itself) sit downstream: the supervisor
// reacts to nodes that crashed while the guard keeps poisoned inputs
// (NaN clouds, rewound stamps, duplicated frames) from reaching node
// state in the first place, and a quarantined frame is never enqueued,
// so neither the supervisor nor the scheduler ever sees it.
// Guard.Attach installs Inspect as the ingress filter, the executor's
// only one.
//
// Ownership. The ingress hook reads the arrival's stamp and payload
// and retains neither; a quarantined frame never reaches a subscriber
// queue, so it takes no envelope and no sequence number.
//
// Accounting. The guard only decides; it counts nothing. The executor
// emits one Quarantined event per rejected frame, and trace.Recorder's
// IntegrityEvents is the one quarantine tally.
//
// The guard is deterministic and side-effect-free on clean input: it
// draws no randomness, schedules no events, and its accept path
// allocates nothing, so a guarded run over a clean stream is
// byte-identical to an unguarded one.
package guard

import (
	"time"

	"repro/internal/platform"
)

// Quarantine causes, recorded per rejected frame.
const (
	// CauseMalformed marks payload validation failures (NaN/Inf fields,
	// degenerate boxes, torn records).
	CauseMalformed = "malformed-payload"
	// CauseStampRewind marks stamps older than the per-topic high-water
	// mark by more than the holdback — a rewound sensor clock.
	CauseStampRewind = "stamp-rewind"
	// CauseDuplicate marks stamps already seen within the dup window —
	// a duplicating driver or retransmitting transport.
	CauseDuplicate = "duplicate-stamp"
	// CauseFutureStamp marks stamps ahead of arrival time by more than
	// the future tolerance — a fast sensor clock.
	CauseFutureStamp = "future-stamp"
)

// PointIngress names the guard's detection point in integrity traces.
const PointIngress = "ingress"

// Time-sanitization bounds. Every guarded stack runs with these values.
const (
	// holdback bounds tolerated reordering: a stamp within holdback of
	// the topic's newest accepted stamp is admitted late; older than
	// that is quarantined as a rewind.
	holdback = 150 * time.Millisecond
	// futureTolerance bounds how far ahead of arrival time a stamp may
	// run before it is quarantined.
	futureTolerance = 10 * time.Millisecond
	// dupWindow is how many recent stamps per topic are remembered for
	// duplicate detection.
	dupWindow = 32
)

// Config has no fields: the guard has no settings. It stays only
// because cmd/bench calls New(Config{}); a later benchmark change drops
// the argument and deletes this type.
type Config struct{}

// topicClock is the per-topic clock model: the newest accepted stamp
// (high-water mark) and a ring of recent stamps for duplicate
// detection.
type topicClock struct {
	head     time.Duration // newest accepted stamp
	seen     uint64        // accepted frames
	recent   [dupWindow]time.Duration
	recentN  int // valid entries in recent
	recentAt int // next ring slot
}

func (tc *topicClock) remember(stamp time.Duration) {
	tc.recent[tc.recentAt] = stamp
	tc.recentAt = (tc.recentAt + 1) % len(tc.recent)
	if tc.recentN < len(tc.recent) {
		tc.recentN++
	}
}

func (tc *topicClock) isDuplicate(stamp time.Duration) bool {
	for i := 0; i < tc.recentN; i++ {
		if tc.recent[i] == stamp {
			return true
		}
	}
	return false
}

// Guard inspects every bus arrival and quarantines frames that fail
// payload validation or time sanitization. Create with New, wire with
// Attach.
type Guard struct {
	clocks map[string]*topicClock
}

// New creates a guard.
func New(Config) *Guard {
	return &Guard{clocks: make(map[string]*topicClock)}
}

// Attach installs the guard as the executor's ingress filter.
func (g *Guard) Attach(ex *platform.Executor) { ex.IngressFilter = g.Inspect }

// Inspect adjudicates one arrival. Check order: payload validation,
// then future stamp, then duplicate, then rewind — so a frame that is
// both malformed and mistimed is attributed to the corruption, which
// is the root cause.
func (g *Guard) Inspect(topic string, stamp time.Duration, payload any, now time.Duration) platform.IngressVerdict {
	if v := validators[topic]; v != nil {
		if err := v(payload); err != nil {
			return quarantine(CauseMalformed)
		}
	}

	tc := g.clocks[topic]
	if tc == nil {
		tc = &topicClock{}
		g.clocks[topic] = tc
	}

	if stamp > now+futureTolerance {
		return quarantine(CauseFutureStamp)
	}
	if tc.isDuplicate(stamp) {
		return quarantine(CauseDuplicate)
	}
	if tc.seen > 0 && stamp < tc.head {
		if tc.head-stamp > holdback {
			return quarantine(CauseStampRewind)
		}
		// Late but within holdback: admit without advancing the
		// high-water mark, like a reorder buffer releasing a straggler.
	} else {
		tc.head = stamp
	}
	tc.seen++
	tc.remember(stamp)
	return platform.IngressVerdict{}
}

func quarantine(cause string) platform.IngressVerdict {
	return platform.IngressVerdict{Quarantine: true, Cause: cause}
}
