package eval

import (
	"context"
	"runtime"
	"sync"
)

// runOrdered distributes n independent work items over w workers and hands
// every result to emit in item order, regardless of completion order. This
// is the determinism contract of the parallel sweeps: records (and progress
// lines) appear exactly as a serial run would produce them, because emit is
// only ever called from the calling goroutine, sequentially, for item 0,
// 1, 2, …. Workers communicate results through a per-item slot guarded by
// a per-item done channel, so no locks are needed and `go test -race`
// stays quiet.
//
// w ≤ 0 selects runtime.NumCPU(); w == 1 degenerates to a plain loop.
func runOrdered[T any](ctx context.Context, w, n int, run func(context.Context, int) T, emit func(int, T)) {
	if w <= 0 {
		w = runtime.NumCPU() //lint:allow nondet -- worker count affects scheduling only; results merge in input order
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			emit(i, run(ctx, i))
		}
		return
	}
	results := make([]T, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = run(ctx, i)
				close(done[i])
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	for i := 0; i < n; i++ {
		<-done[i]
		emit(i, results[i])
	}
	wg.Wait()
}
