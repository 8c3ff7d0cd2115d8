package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Pool errors.
var (
	// ErrPoolSaturated is returned by TrySubmit when the task queue is
	// full — the pool's explicit-rejection backpressure signal (the
	// fleet service maps it to a 429).
	ErrPoolSaturated = errors.New("parallel: pool saturated")
	// ErrPoolClosed is returned by submissions after Close.
	ErrPoolClosed = errors.New("parallel: pool closed")
)

// Pool is a long-lived bounded worker pool for services that accept
// work over time (unlike Tasks, which drains a fixed index range and
// returns). It carries the same survival contract as Tasks: a
// panicking task is captured as a *PanicError and delivered on the
// task's result channel; the worker goroutine — and the process —
// survive.
type Pool struct {
	tasks chan poolTask
	wg    sync.WaitGroup
	// mu serializes submission against Close: submitters hold the read
	// side while sending, so the channel can never be closed under a
	// send. A Submit blocked on a full queue only delays Close, never
	// deadlocks it — the workers keep draining until the channel
	// actually closes.
	mu     sync.RWMutex
	closed bool

	submitted atomic.Int64
	panicked  atomic.Int64
}

type poolTask struct {
	fn   func() error
	done chan error
}

// NewPool starts workers goroutines serving a queue of the given
// depth. workers < 1 falls back to MaxWorkers(); depth < 0 is treated
// as 0 (rendezvous: Submit blocks until a worker is free, TrySubmit
// rejects unless one is idle and draining the channel).
func NewPool(workers, depth int) *Pool {
	if workers < 1 {
		workers = MaxWorkers()
	}
	if depth < 0 {
		depth = 0
	}
	p := &Pool{tasks: make(chan poolTask, depth)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.done <- p.run(t.fn)
			}
		}()
	}
	return p
}

// run executes one task, converting a panic into its error result.
func (p *Pool) run(fn func() error) error {
	var err error
	if pe := safeCall(0, func(int) { err = fn() }); pe != nil {
		p.panicked.Add(1)
		return pe
	}
	return err
}

// TrySubmit enqueues a task without blocking. On success the returned
// channel delivers the task's error (or *PanicError) exactly once.
// When the queue is full it returns ErrPoolSaturated — the caller
// sheds load explicitly instead of buffering without bound.
func (p *Pool) TrySubmit(fn func() error) (<-chan error, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	t := poolTask{fn: fn, done: make(chan error, 1)}
	select {
	case p.tasks <- t:
		p.submitted.Add(1)
		return t.done, nil
	default:
		return nil, ErrPoolSaturated
	}
}

// Submit enqueues a task, blocking while the queue is full.
func (p *Pool) Submit(fn func() error) (<-chan error, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	t := poolTask{fn: fn, done: make(chan error, 1)}
	p.tasks <- t
	p.submitted.Add(1)
	return t.done, nil
}

// Queued returns the number of tasks waiting for a worker.
func (p *Pool) Queued() int { return len(p.tasks) }

// Submitted returns the number of tasks ever accepted.
func (p *Pool) Submitted() int64 { return p.submitted.Load() }

// Panicked returns the number of tasks that ended in a captured panic.
func (p *Pool) Panicked() int64 { return p.panicked.Load() }

// Close stops accepting work and waits for queued tasks to drain.
// Submissions racing with Close may be executed or rejected, never
// lost silently.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}
