// Package parallel provides the host-parallelism substrate the
// reproduction engine runs on: a bounded task runner with deterministic
// by-index result collection and panic capture.
//
// Results are always collected by index, never by completion order, so
// concurrent execution cannot reorder anything an experiment renders
// (see DESIGN.md, "Host parallelism vs. simulated time").
//
// The worker budget is a process-wide knob (SetMaxWorkers, wired to the
// -workers flag of cmd/characterize); it bounds how many OS threads the
// engine saturates but never changes a reported number.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a task panic captured by Tasks: the panicking task's
// index, the recovered value, and the goroutine stack at the panic
// site. It is delivered as the task's error, so a panic never escapes
// a worker goroutine (which would kill the whole process).
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// safeCall runs fn(i), converting a panic into a *PanicError.
func safeCall(i int, fn func(int)) (err *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}

var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.NumCPU()))
}

// SetMaxWorkers bounds the number of goroutines Tasks may use. n < 1
// resets to runtime.NumCPU(). It only affects wall-clock speed: every
// result is bit-identical under any setting.
func SetMaxWorkers(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	maxWorkers.Store(int64(n))
}

// MaxWorkers returns the current worker budget.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// Tasks runs n error-returning tasks across at most min(workers,
// MaxWorkers, n) goroutines and returns one error slot per task, in
// index order. Indices are claimed atomically, so each task runs
// exactly once; tasks for different indices must write disjoint state.
// A task that panics fills its slot with a *PanicError (stack included)
// instead of unwinding the pool: one corrupt task among healthy ones
// costs exactly its own result, never the process.
func Tasks(n, workers int, fn func(int) error) []error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	run := func(i int) {
		if pe := safeCall(i, func(i int) { errs[i] = fn(i) }); pe != nil {
			errs[i] = pe
		}
	}
	workers = min(workers, MaxWorkers(), n)
	if workers <= 1 {
		for i := range n {
			run(i)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return errs
}

// FirstError runs n error-returning tasks concurrently and returns the
// lowest-indexed non-nil error (deterministic regardless of which task
// failed first in wall-clock time), or nil. Panicking tasks surface as
// *PanicError like any other failure.
func FirstError(n, workers int, fn func(int) error) error {
	for _, err := range Tasks(n, workers, fn) {
		if err != nil {
			return err
		}
	}
	return nil
}
