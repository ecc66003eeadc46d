package linalg

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Both fan-outs run every index exactly once, at any GOMAXPROCS and
// width.
func TestParallelForCoversAll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 17, 1000} {
			hit := make([]int32, n)
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hit[i], 1)
				}
			})
			for _, width := range []int{0, 1, 2, 3, 16} {
				ParallelEach(n, width, func(i int) { atomic.AddInt32(&hit[i], 1) })
			}
			for i, h := range hit {
				if h != 6 {
					t.Fatalf("GOMAXPROCS %d, n=%d: index %d ran %d times, want 6", procs, n, i, h)
				}
			}
		}
	}
}

// ParallelEach never runs more than width bodies at once, nor more than
// GOMAXPROCS.
func TestParallelEachBoundsWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, width := range []int{1, 2, 3, 0, 20} {
		var running, high atomic.Int32
		ParallelEach(200, width, func(int) {
			now := running.Add(1)
			for {
				h := high.Load()
				if now <= h || high.CompareAndSwap(h, now) {
					break
				}
			}
			time.Sleep(20 * time.Microsecond)
			running.Add(-1)
		})
		limit := int32(width)
		if width == 0 || width > 8 {
			limit = 8
		}
		if h := high.Load(); h > limit {
			t.Errorf("width %d: %d bodies ran at once, want at most %d", width, h, limit)
		}
	}
}

// Fan-outs nested three deep inside pool workers finish while every
// worker is busy: a caller recruits only idle workers and runs its own
// chunks, so no fan-out waits for a worker that will not come.
func TestPoolNestedFanOutsFinish(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	done := make(chan int64)
	go func() {
		var leaves atomic.Int64
		ParallelEach(8, 0, func(int) {
			ParallelFor(6, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ParallelEach(5, 3, func(int) {
						time.Sleep(50 * time.Microsecond)
						leaves.Add(1)
					})
				}
			})
		})
		done <- leaves.Load()
	}()
	select {
	case got := <-done:
		if got != 8*6*5 {
			t.Errorf("nested fan-outs ran %d leaves, want %d", got, 8*6*5)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested fan-outs did not finish")
	}
}

// A panic in a body reaches the caller, whichever participant ran it,
// and leaves the pool usable.
func TestPoolPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, bad := range []int{0, 3, 63} {
		got := func() (p any) {
			defer func() { p = recover() }()
			ParallelEach(64, 0, func(i int) {
				if i == bad {
					panic(fmt.Sprint("index ", i))
				}
				time.Sleep(10 * time.Microsecond)
			})
			return nil
		}()
		if want := fmt.Sprint("index ", bad); got != want {
			t.Errorf("panic %v, want %q", got, want)
		}
	}
	var sum atomic.Int64
	ParallelFor(100, func(lo, hi int) { sum.Add(int64(hi - lo)) })
	if sum.Load() != 100 {
		t.Errorf("after panics the pool covered %d of 100 indices", sum.Load())
	}
}
