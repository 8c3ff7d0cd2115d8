package parallel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestTasksCapturesPanicAmongHealthyTasks is the pool-survival
// regression: one panicking task submitted among healthy ones must cost
// exactly its own slot — every other task completes, the process
// survives, and the capture carries the panic value and a stack.
func TestTasksCapturesPanicAmongHealthyTasks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		errs := Tasks(8, workers, func(i int) error {
			if i == 3 {
				panic("corrupt scenario")
			}
			ran.Add(1)
			if i == 5 {
				return errors.New("plain failure")
			}
			return nil
		})
		if got := ran.Load(); got != 7 {
			t.Fatalf("workers=%d: %d healthy tasks ran, want 7", workers, got)
		}
		var pe *PanicError
		if !errors.As(errs[3], &pe) {
			t.Fatalf("workers=%d: errs[3] = %v, want *PanicError", workers, errs[3])
		}
		if pe.Index != 3 || pe.Value != "corrupt scenario" {
			t.Fatalf("capture = index %d value %v", pe.Index, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panic_test.go") {
			t.Fatal("captured stack does not name the panic site")
		}
		if errs[5] == nil || errs[5].Error() != "plain failure" {
			t.Fatalf("errs[5] = %v, want the plain failure", errs[5])
		}
		for _, i := range []int{0, 1, 2, 4, 6, 7} {
			if errs[i] != nil {
				t.Fatalf("healthy task %d got error %v", i, errs[i])
			}
		}
	}
}

// TestFirstErrorSurfacesPanicDeterministically pins that a panic loses
// to a lower-indexed plain error and wins over higher-indexed ones.
func TestFirstErrorSurfacesPanicDeterministically(t *testing.T) {
	err := FirstError(10, 4, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		if i == 6 {
			return errors.New("later")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("FirstError = %v, want *PanicError at index 2", err)
	}
}
