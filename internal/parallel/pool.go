package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by submissions after Close.
var ErrPoolClosed = errors.New("parallel: pool closed")

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
	// send. A Submit blocked waiting for a worker only delays Close,
	// never deadlocks it — the workers keep draining until the channel
	// actually closes.
	mu     sync.RWMutex
	closed bool

	panicked atomic.Int64
}

type poolTask struct {
	fn   func() error
	done chan error
}

// NewPool starts workers goroutines; workers < 1 falls back to
// MaxWorkers(). The pool holds no queue: Submit blocks until a worker
// is free.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = MaxWorkers()
	}
	p := &Pool{tasks: make(chan poolTask)}
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

// Submit hands a task to a worker, blocking until one is free. The
// returned channel delivers the task's error (or *PanicError) exactly
// once.
func (p *Pool) Submit(fn func() error) (<-chan error, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	t := poolTask{fn: fn, done: make(chan error, 1)}
	p.tasks <- t
	return t.done, nil
}

// Panicked returns the number of tasks that ended in a captured panic.
func (p *Pool) Panicked() int64 { return p.panicked.Load() }

// Close stops accepting work and waits for running tasks to finish.
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
