package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce pins that a Tasks run executes every
// index exactly once, at any worker count.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	defer SetMaxWorkers(MaxWorkers())
	SetMaxWorkers(64)
	for _, workers := range []int{1, 2, 7, 64} {
		n := 1000
		counts := make([]int32, n)
		Tasks(n, workers, func(i int) error { atomic.AddInt32(&counts[i], 1); return nil })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestMapPreservesIndexOrder pins that Tasks maps each index to its own
// result slot, whatever order the workers finish in.
func TestMapPreservesIndexOrder(t *testing.T) {
	errs := Tasks(257, 8, func(i int) error { return fmt.Errorf("%d", i*i) })
	for i, err := range errs {
		if want := fmt.Sprint(i * i); err == nil || err.Error() != want {
			t.Fatalf("index %d: got %v want %s", i, err, want)
		}
	}
}

func TestRunHandlesDegenerateInputs(t *testing.T) {
	ran := false
	fn := func(int) error { ran = true; return nil }
	if errs := Tasks(0, 4, fn); len(errs) != 0 {
		t.Fatalf("Tasks(0) returned %d slots", len(errs))
	}
	Tasks(-3, 4, fn)
	if ran {
		t.Fatal("fn ran for empty input")
	}
	Tasks(1, 4, func(i int) error { ran = i == 0; return nil })
	if !ran {
		t.Fatal("fn did not run for n=1")
	}
}

func TestFirstErrorReturnsLowestIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := FirstError(10, 4, func(i int) error {
		switch i {
		case 3:
			return errB
		case 7:
			return errA
		}
		return nil
	})
	if err != errB {
		t.Fatalf("got %v, want lowest-indexed error %v", err, errB)
	}
	if err := FirstError(5, 2, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestSetMaxWorkersClampsAndRestores(t *testing.T) {
	old := MaxWorkers()
	defer SetMaxWorkers(old)
	SetMaxWorkers(3)
	if MaxWorkers() != 3 {
		t.Fatalf("MaxWorkers=%d want 3", MaxWorkers())
	}
	SetMaxWorkers(0)
	if MaxWorkers() != runtime.NumCPU() {
		t.Fatalf("MaxWorkers=%d want NumCPU", MaxWorkers())
	}
}
