package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the process's one set of fan-out workers. Every parallel
// loop in the module runs on it: ParallelFor's row ranges (matmuls,
// conv and pooling, Adam, the GENIEx training step, dataset
// generation) and ParallelEach's indices (funcsim tile tasks, batch
// solve blocks, sweep cells).
//
// The caller of a fan-out always runs its share itself and recruits
// only workers that sit idle, never waiting for a busy one, so a body
// may fan out again (a tile task's batch solve, a sweep cell's MVMs)
// without deadlock, and nested fan-outs never run more bodies than
// there are callers plus GOMAXPROCS−1 workers. Workers start lazily,
// up to GOMAXPROCS−1, and are never stopped; a later, larger
// GOMAXPROCS grows the set.
var pool struct {
	mu      sync.Mutex
	idle    []*worker // workers waiting for a job
	started int
	// free recycles job records. It is a locked list rather than a
	// sync.Pool for the reason xbar's blockFree gives: a sync.Pool
	// drops items at GC and at random under the race detector, and
	// each drop would allocate on a fan-out.
	free []*job
}

// worker is one persistent pool goroutine.
type worker struct {
	// jobs has room for one job, and a worker is handed a job only
	// after it took itself off the idle list, so a send never blocks.
	jobs chan *job
}

// job is one fan-out: its participants claim chunk after chunk until
// none is left.
type job struct {
	n, chunk int
	body     func(lo, hi int) // ParallelFor's body, run on [lo, hi)
	each     func(i int)      // ParallelEach's body, run on index i
	next     atomic.Int64     // the next unclaimed chunk
	wg       sync.WaitGroup   // recruited workers still on the job

	mu       sync.Mutex
	panicked any // the first panic a recruited worker recovered
}

// ParallelFor splits [0, n) into at most GOMAXPROCS contiguous chunks
// and runs body on each, returning when all are done. The caller runs
// chunks itself beside any idle pool workers it recruits, so a body may
// call ParallelFor again. A panic in a body reaches the caller once
// every recruited worker has finished. With a body built once, a call
// allocates nothing.
func ParallelFor(n int, body func(lo, hi int)) {
	procs := runtime.GOMAXPROCS(0)
	parts := min(procs, n)
	if parts <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	chunk := (n + parts - 1) / parts
	fanOut(n, chunk, (n+chunk-1)/chunk-1, procs, body, nil)
}

// ParallelEach runs body(i) for every i in [0, n), claiming indices
// one at a time in increasing order, with at most width bodies running
// at once: 0 means GOMAXPROCS, 1 runs every index in order on the
// caller, and a width above GOMAXPROCS runs at most GOMAXPROCS at once.
// Like ParallelFor, it runs on the caller and idle pool workers only,
// nests, re-raises a worker's panic on the caller, and with a body
// built once allocates nothing.
func ParallelEach(n, width int, body func(i int)) {
	procs := runtime.GOMAXPROCS(0)
	if width <= 0 || width > procs {
		width = procs
	}
	if width = min(width, n); width <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	fanOut(n, 1, width-1, procs, nil, body)
}

// fanOut runs the n/chunk chunks of one job on the caller and up to
// helpers idle workers, starting workers while fewer than procs−1
// exist, and returns when every chunk has run.
func fanOut(n, chunk, helpers, procs int, body func(lo, hi int), each func(i int)) {
	pool.mu.Lock()
	var j *job
	if k := len(pool.free); k > 0 {
		j = pool.free[k-1]
		pool.free = pool.free[:k-1]
	} else {
		j = new(job)
	}
	j.n, j.chunk, j.body, j.each = n, chunk, body, each
	j.next.Store(0)
	recruited := 0
	for ; recruited < helpers; recruited++ {
		var w *worker
		if k := len(pool.idle); k > 0 {
			w = pool.idle[k-1]
			pool.idle = pool.idle[:k-1]
		} else if pool.started < procs-1 {
			pool.started++
			w = &worker{jobs: make(chan *job, 1)}
			go w.loop()
		} else {
			break
		}
		j.wg.Add(1)
		w.jobs <- j
	}
	pool.mu.Unlock()
	if recruited > 0 {
		// The sends readied the workers on this P, where they would
		// wait for the caller to block; yield it so they start now.
		runtime.Gosched()
	}
	defer j.finish()
	j.work()
}

// work claims and runs chunks until none is left.
func (j *job) work() {
	for {
		k := int(j.next.Add(1) - 1)
		lo := k * j.chunk
		if lo >= j.n {
			return
		}
		if j.each != nil {
			j.each(k)
		} else {
			j.body(lo, min(lo+j.chunk, j.n))
		}
	}
}

// finish waits for every recruited worker, even while the caller's own
// chunk panics, recycles the job and re-raises a worker's panic.
func (j *job) finish() {
	j.wg.Wait()
	p := j.panicked
	j.body, j.each, j.panicked = nil, nil, nil
	pool.mu.Lock()
	pool.free = append(pool.free, j)
	pool.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// loop runs the jobs the worker is handed. A worker puts itself back
// on the idle list before it reports its job done, so the caller's
// next fan-out can recruit it again.
func (w *worker) loop() {
	for j := range w.jobs {
		j.help()
		pool.mu.Lock()
		pool.idle = append(pool.idle, w)
		pool.mu.Unlock()
		j.wg.Done()
	}
}

// help runs chunks of j on a worker and keeps the first panic for the
// caller to re-raise, where it can be recovered: unrecovered on a
// worker, it would end the process.
func (j *job) help() {
	defer func() {
		if p := recover(); p != nil {
			j.mu.Lock()
			if j.panicked == nil {
				j.panicked = p
			}
			j.mu.Unlock()
		}
	}()
	j.work()
}
