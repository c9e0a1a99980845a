// Tests for the long-lived-service hardening: context cancellation through
// the search hot loops, panic containment in the worker pools, and
// concurrent use of one SearchCache by many optimizers (primepard's serving
// pattern). The cancellation checks are value-independent, so every other
// test in the package doubles as the proof that an uncancelled Plan stays
// bit-identical to an uncancellable one.
package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// TestOptimizeCtxCancelledPromptly pins the acceptance contract: a Plan under
// an immediately-cancelled context returns context.Canceled fast — even for
// a cold exact search — and publishes nothing to the shared cache, which
// stays fully usable.
func TestOptimizeCtxCancelledPromptly(t *testing.T) {
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	o := optimizerFor(t, 8, 4)
	o.Cache = NewSearchCache()
	req := PlanRequest{Graph: g, Layers: 3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := o.Plan(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled search took %s, not prompt", elapsed)
	}
	if n, e := o.Cache.Sizes(); n != 0 || e != 0 || o.Cache.PlanEntries() != 0 {
		t.Fatalf("cancelled search published %d node entries, %d edge matrices, %d plans",
			n, e, o.Cache.PlanEntries())
	}

	// The same optimizer and cache serve an uncancelled search that matches
	// a reference on a private cache bit-for-bit.
	got, err := o.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ref := optimizerFor(t, 8, 4)
	ref.Cache = NewSearchCache()
	want, err := ref.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameStrategy(t, "after-cancel", got, want)
}

// TestOptimizeCtxNilContext: Plan under a nil context must behave exactly
// like Plan under context.Background, not panic.
func TestOptimizeCtxNilContext(t *testing.T) {
	g := repeatedLinearChain()
	o := optimizerFor(t, 4, 4)
	o.Cache = NewSearchCache()
	a, err := o.Plan(nil, PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameStrategy(t, "nil-ctx", a, b)
}

// TestRunTasksCancelMidway cancels from inside a task and asserts the pool
// stops issuing work: the remaining tasks never run and the caller sees
// context.Canceled.
func TestRunTasksCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 10_000
	var ran atomic.Int64
	err := RunTasks(ctx, 4, n, func(i int) {
		if ran.Add(1) == 16 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d tasks ran despite cancellation", got)
	}
}

// TestRunTasksSerialCancel covers the inline (w ≤ 1) path.
func TestRunTasksSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int
	err := RunTasks(ctx, 1, 100, func(i int) {
		ran++
		if ran == 7 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 7 {
		t.Fatalf("ran %d tasks after cancellation at 7", ran)
	}
}

// TestRunTasksPanicContained: a panicking task must not kill the process
// from the pool goroutine; the caller receives a *TaskPanic naming the task
// with the original value and a stack pointing at the task.
func TestRunTasksPanicContained(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic reached the caller")
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *TaskPanic", r, r)
		}
		if tp.Task != 7 {
			t.Errorf("TaskPanic.Task = %d, want 7", tp.Task)
		}
		if tp.Value != "boom" {
			t.Errorf("TaskPanic.Value = %v, want boom", tp.Value)
		}
		if !strings.Contains(string(tp.Stack), "TestRunTasksPanicContained") {
			t.Errorf("TaskPanic.Stack does not point at the task:\n%s", tp.Stack)
		}
		if !strings.Contains(tp.Error(), "task 7") {
			t.Errorf("TaskPanic.Error() = %q", tp.Error())
		}
	}()
	// Workers pull tasks in index order from the shared counter, so with a
	// single panicking index the first recorded panic is deterministic.
	RunTasks(context.Background(), 4, 64, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
	t.Fatal("RunTasks returned instead of re-panicking")
}

// TestParallelRowsPanicContained covers the banded pools used inside node
// evaluation and the DP: the re-panic carries the exact row index.
func TestParallelRowsPanicContained(t *testing.T) {
	defer func() {
		tp, ok := recover().(*TaskPanic)
		if !ok {
			t.Fatal("want *TaskPanic from parallelRows")
		}
		if tp.Task != 33 {
			t.Errorf("TaskPanic.Task = %d, want 33", tp.Task)
		}
	}()
	parallelRows(4, 64, func(i int) {
		if i == 33 {
			panic("row")
		}
	})
	t.Fatal("parallelRows returned instead of re-panicking")
}

func TestParallelChunksPanicContained(t *testing.T) {
	defer func() {
		if _, ok := recover().(*TaskPanic); !ok {
			t.Fatal("want *TaskPanic from parallelChunks")
		}
	}()
	parallelChunks(4, 64, func(lo, hi int) {
		panic("band")
	})
	t.Fatal("parallelChunks returned instead of re-panicking")
}

// TestSearchCacheConcurrentUse is the satellite pin for primepard's serving
// pattern: many optimizers sharing ONE SearchCache run concurrently — all
// starting cold, so put races actually happen — and every result must be
// bit-identical to a serial reference. Run under -race in CI.
func TestSearchCacheConcurrentUse(t *testing.T) {
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	ref := optimizerFor(t, 8, 4)
	ref.Cache = NewSearchCache()
	want, err := ref.Plan(context.Background(), PlanRequest{Graph: g, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}

	shared := NewSearchCache()
	const workers = 8
	results := make([]*Strategy, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := optimizerFor(t, 8, 4)
			o.Cache = shared
			results[w], errs[w] = o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 3})
		}(w)
	}
	wg.Wait()
	hits := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		sameStrategy(t, "concurrent", results[w], want)
		hits += results[w].Stats.CrossCallNodeHits + results[w].Stats.CrossCallEdgeHits
	}
	// With 8 racing cold searches at least some must have been served by
	// another's published entries; and a follow-up search is fully warm.
	o := optimizerFor(t, 8, 4)
	o.Cache = shared
	warm, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.NodeEvals != 0 || warm.Stats.EdgeMatsBuilt != 0 {
		t.Fatalf("shared cache not warm after concurrent use: %+v", warm.Stats)
	}
	sameStrategy(t, "warm-after-contention", warm, want)
	_ = hits // hit counts vary with scheduling; correctness is the pin
}
