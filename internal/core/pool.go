// Worker-pool plumbing for the optimizer's parallel axes: candidate
// evaluation across nodes, edge-matrix builds across edges, and the inner
// loops inside one node, one matrix or one DP step. All task functions write
// to disjoint slots, so results are deterministic regardless of worker count
// or schedule.
//
// The worker count is resolved once per search (Optimizer.workers, recorded
// as SearchStats.Workers) and passed down, so one search never mixes counts.
// Fan-out is one level deep: the outer loops over nodes and edges hand their
// tasks innerWorkers(w, tasks), which is 1 whenever the outer loop has two or
// more tasks. Nesting would start w² goroutines on w cores and split every
// matrix into per-band memos; short stage searches pay for that in set-up and
// hand-off instead of gaining parallelism (DESIGN.md §5.11).
//
// Two long-lived-service concerns live here too. Cancellation: runTasks
// polls its context once per task pull (a lock-free channel read), so an
// aborted search stops issuing work promptly while an uncancelled run
// executes exactly the schedule it always did. Panic containment: a panic
// inside any pool goroutine used to kill the whole process with a stack
// pointing at the pool; now the first panic is captured with its task index
// and original stack and re-panicked from the CALLER's goroutine as a
// *TaskPanic, so a serving caller (primepard) can recover it per request.
package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
)

// WorkersEnv overrides the optimizer's worker count when Opts.Parallelism is
// unset, so benchmarks and CI can pin parallelism without code changes.
const WorkersEnv = "PRIMEPAR_WORKERS"

// workersEnvWarned dedups the invalid-PRIMEPAR_WORKERS warning: workers()
// runs once per search and a misconfigured environment should be reported
// once per process, not once per search.
var workersEnvWarned atomic.Bool

// parseWorkersEnv validates a PRIMEPAR_WORKERS value. It returns the worker
// count, or a non-empty diagnostic when the value must be ignored
// (non-numeric, zero or negative).
func parseWorkersEnv(s string) (int, string) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Sprintf("%s=%q is not an integer", WorkersEnv, s)
	}
	if n <= 0 {
		return 0, fmt.Sprintf("%s=%d is not a positive worker count", WorkersEnv, n)
	}
	return n, ""
}

// workers resolves the worker count: Opts.Parallelism when positive, then
// the PRIMEPAR_WORKERS environment override, then GOMAXPROCS. An invalid
// override is reported once on stderr instead of being silently ignored. A
// count of 1 degrades every parallel loop to inline serial execution.
func (o *Optimizer) workers() int {
	if o.Opts.Parallelism > 0 {
		return o.Opts.Parallelism
	}
	if s := os.Getenv(WorkersEnv); s != "" {
		n, warn := parseWorkersEnv(s)
		if warn == "" {
			return n
		}
		if workersEnvWarned.CompareAndSwap(false, true) {
			fmt.Fprintf(os.Stderr, "primepar: ignoring %s; falling back to GOMAXPROCS\n", warn)
		}
	}
	return runtime.GOMAXPROCS(0)
}

// TaskPanic is a panic recovered inside a worker-pool goroutine, re-panicked
// on the caller's goroutine with the task identity and the ORIGINAL stack
// attached (the re-panic's own stack points at the pool, which is useless).
type TaskPanic struct {
	// Task is the index of the panicking task: the item index in runTasks
	// and parallelRows, the band start in parallelChunks.
	Task int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("core: pool task %d panicked: %v", p.Task, p.Value)
}

// firstPanic captures the first panic observed across a pool's goroutines.
// Later panics are dropped: concurrent tasks may fail together, and the
// first is the one whose stack the caller needs.
type firstPanic struct {
	mu sync.Mutex
	p  *TaskPanic
}

// record must be called from the deferred recover of the panicking
// goroutine, so debug.Stack still sees the panic frames.
func (f *firstPanic) record(task int, v any) {
	st := debug.Stack()
	f.mu.Lock()
	if f.p == nil {
		f.p = &TaskPanic{Task: task, Value: v, Stack: st}
	}
	f.mu.Unlock()
}

// rethrow re-panics on the calling goroutine if any task panicked. Callers
// invoke it after the pool's WaitGroup settles, so every worker has exited.
func (f *firstPanic) rethrow() {
	if f.p != nil {
		panic(f.p)
	}
}

// runTasks runs f(i) for i in [0, n) on up to w workers pulling from a
// shared atomic counter (better load balance than static chunking when task
// sizes vary, e.g. edge matrices of very different dimensions). w ≤ 1 runs
// inline.
//
// Cancellation is coarse — checked once per task pull, never inside f — so
// an in-flight task always completes and an uncancelled run is untouched.
// Returns ctx.Err() when the context was cancelled; a nil ctx never cancels.
func runTasks(ctx context.Context, w, n int, f func(i int)) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if cancelled() {
				return ctx.Err()
			}
			f(i)
		}
		return nil
	}
	var fp firstPanic
	var stop atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && !cancelled() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							fp.record(i, r)
							stop.Store(true)
						}
					}()
					f(i)
				}()
			}
		}()
	}
	wg.Wait()
	fp.rethrow()
	if cancelled() {
		return ctx.Err()
	}
	return nil
}

// innerWorkers is the worker count a task of an n-task outer loop may use
// for its own inner loops. The pool fans out one level only: an outer loop
// with two or more tasks already keeps w workers busy, so its tasks run
// their inner loops inline — one band, whose private memo then spans the
// task's whole range. Only a lone outer task passes the pool on.
func innerWorkers(w, n int) int {
	if n > 1 {
		return 1
	}
	return w
}

// parallelChunks splits [0, n) into one contiguous band per worker (up to w)
// and runs f(lo, hi) on each. Use it when the per-band closure carries
// expensive private state (memo tables, scratch buffers) that should be
// built once per goroutine rather than once per item; with one worker the
// whole range shares a single state instance. A panicking band re-panics
// from the caller as a *TaskPanic carrying the band's start index.
func parallelChunks(w, n int, f func(lo, hi int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			f(0, n)
		}
		return
	}
	var fp firstPanic
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fp.record(s, r)
				}
			}()
			f(s, e)
		}(start, end)
	}
	wg.Wait()
	fp.rethrow()
}

// parallelRows runs f(i) for i in [0, n) on up to w workers. A panicking row
// re-panics from the caller as a *TaskPanic carrying the exact row index.
func parallelRows(w, n int, f func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var fp firstPanic
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			i := s
			defer func() {
				if r := recover(); r != nil {
					fp.record(i, r)
				}
			}()
			for ; i < e; i++ {
				f(i)
			}
		}(start, end)
	}
	wg.Wait()
	fp.rethrow()
}
