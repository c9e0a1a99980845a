// Admission control and load shedding for the planner daemon.
//
// Search requests are expensive and bursty: one cold /v1/plan can hold the
// worker pool for seconds, and an oversubscribed burst would otherwise pile
// goroutines onto the same SearchCache until everything times out at once.
// The admission layer bounds that: at most MaxConcurrent searches run; up to
// MaxQueue more wait in a priority-then-FIFO queue; everything beyond that is
// shed IMMEDIATELY with 503 + Retry-After, which is cheaper for both sides
// than queueing doomed work. Two more shedding policies are deadline- and
// memory-aware: a request whose remaining client deadline cannot cover its
// predicted search cost (core.EstimatePlan work × a learned ns-per-work
// scale) is shed on arrival, and under heap pressure (soft watermark against
// runtime/metrics) cold requests are shed while warm-cache requests — which
// do no quadratic work — keep flowing.
//
// Slot lifecycle: admit() either grants a slot inline, queues a waiter, or
// sheds. release() hands the freed slot DIRECTLY to the best queued waiter
// (highest priority, then arrival order) instead of decrementing and racing;
// a waiter that gives up (queue timeout, client disconnect) removes itself
// under the same mutex, and if the grant already happened it passes the slot
// straight on. Warm requests bypass the gate entirely: they are ~free, so
// making them wait behind cold searches would only add latency and would
// starve the one class of traffic shedding is meant to protect.
package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// admissionConfig is the server's admission policy. MaxConcurrent <= 0
// disables the layer entirely (every request is admitted inline).
type admissionConfig struct {
	// MaxConcurrent bounds concurrently running cold searches.
	MaxConcurrent int
	// MaxQueue bounds waiting requests beyond the running ones.
	MaxQueue int
	// QueueTimeout bounds how long one request may wait for a slot.
	QueueTimeout time.Duration
	// MemSoftLimit, when positive, sheds cold requests while live heap
	// bytes exceed it. Warm requests are still admitted.
	MemSoftLimit uint64
}

// waiter is one queued request. granted is authoritative under admission.mu:
// release() sets it before signalling ready, abandon() checks it before
// removing, so the grant/give-up race always resolves to exactly one owner
// for the slot.
type waiter struct {
	pri     int
	seq     uint64
	ready   chan struct{}
	granted bool
}

// waitBuckets is a fixed-bucket queue-wait histogram (upper bounds in ms:
// 1, 10, 100, 1000, 10000, +inf), atomically updated, served on /v1/stats.
type waitBuckets [6]atomic.Int64

var waitBucketBounds = [5]time.Duration{
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
}

func (b *waitBuckets) observe(d time.Duration) {
	for i, ub := range waitBucketBounds {
		if d <= ub {
			b[i].Add(1)
			return
		}
	}
	b[len(b)-1].Add(1)
}

// queueWaitHistogram is the JSON shape of the wait histogram.
type queueWaitHistogram struct {
	LE1ms   int64 `json:"le_1ms"`
	LE10ms  int64 `json:"le_10ms"`
	LE100ms int64 `json:"le_100ms"`
	LE1s    int64 `json:"le_1s"`
	LE10s   int64 `json:"le_10s"`
	Inf     int64 `json:"inf"`
}

func (b *waitBuckets) snapshot() queueWaitHistogram {
	return queueWaitHistogram{
		LE1ms: b[0].Load(), LE10ms: b[1].Load(), LE100ms: b[2].Load(),
		LE1s: b[3].Load(), LE10s: b[4].Load(), Inf: b[5].Load(),
	}
}

// costPredictor learns a ns-per-work-unit scale from completed cold searches
// (EWMA), converting core.EstimatePlan's abstract work units into expected
// wall time for deadline shedding and Retry-After hints. The seed is a
// deliberately pessimistic laptop-scale figure; two or three observations
// wash it out.
type costPredictor struct {
	mu        sync.Mutex
	nsPerWork float64
}

const (
	predictorSeedNS = 100.0 // ns per work unit before any observation
	predictorDecay  = 0.3   // EWMA weight of each new observation
)

func newCostPredictor() *costPredictor {
	return &costPredictor{nsPerWork: predictorSeedNS}
}

// predict converts estimated work units to expected wall time.
func (p *costPredictor) predict(work float64) time.Duration {
	p.mu.Lock()
	ns := p.nsPerWork
	p.mu.Unlock()
	return time.Duration(work * ns)
}

// observe folds one completed search into the scale. Tiny work totals are
// skipped: their elapsed time is dominated by fixed overhead and would teach
// the predictor a wildly inflated per-unit cost.
func (p *costPredictor) observe(work float64, elapsed time.Duration) {
	if work < 1000 || elapsed <= 0 {
		return
	}
	sample := float64(elapsed.Nanoseconds()) / work
	p.mu.Lock()
	p.nsPerWork = (1-predictorDecay)*p.nsPerWork + predictorDecay*sample
	p.mu.Unlock()
}

// admission is the gate itself: slots, queue, predictor and counters.
type admission struct {
	cfg  admissionConfig
	pred *costPredictor
	// memUsage reads live heap bytes; replaced by tests to force pressure.
	memUsage func() uint64

	mu    sync.Mutex
	inUse int
	queue []*waiter
	seq   uint64

	queued           atomic.Int64
	admitted         atomic.Int64
	shedQueueFull    atomic.Int64
	shedQueueTimeout atomic.Int64
	shedDeadline     atomic.Int64
	shedMemory       atomic.Int64
	waits            waitBuckets
}

func newAdmission(cfg admissionConfig) *admission {
	return &admission{cfg: cfg, pred: newCostPredictor(), memUsage: heapObjectBytes}
}

// heapObjectBytes reads the live heap via runtime/metrics — the bytes
// occupied by reachable + not-yet-swept objects, which is what a cache-heavy
// planner actually accumulates.
func heapObjectBytes() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// retryHint bounds a Retry-After suggestion to something a client can act on.
func retryHint(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > time.Minute {
		return time.Minute
	}
	return d
}

// admit applies the shedding policies and acquires a slot (or queues for
// one). It returns a release function to call when the search finishes; on
// shedding or cancellation it returns an *apiError describing which policy
// fired. warm requests bypass the gate; expectedCost is the predictor's
// wall-time estimate for this request's remaining search work.
//
// deadline is the request context's deadline (zero when none): the request
// is shed up front when expectedCost cannot fit before it, and re-checked on
// grant, so a request that queued past its usefulness does not start a
// doomed search.
func (a *admission) admit(ctx ctxDone, warm bool, expectedCost time.Duration, deadline time.Time) (func(), *apiError) {
	if a.cfg.MaxConcurrent <= 0 || warm {
		a.admitted.Add(1)
		return func() {}, nil
	}
	if lim := a.cfg.MemSoftLimit; lim > 0 && a.memUsage() > lim {
		a.shedMemory.Add(1)
		return nil, &apiError{
			status: 503, code: "memory_pressure", retryable: true,
			retryAfter: retryHint(expectedCost),
			message:    "server under memory pressure; only warm-cache requests are admitted",
		}
	}
	if !deadline.IsZero() && time.Until(deadline) < expectedCost {
		return nil, a.deadlineShed(expectedCost, 0, deadline)
	}

	a.mu.Lock()
	if a.inUse < a.cfg.MaxConcurrent && len(a.queue) == 0 {
		a.inUse++
		a.mu.Unlock()
		a.admitted.Add(1)
		a.waits.observe(0)
		return a.release, nil
	}
	if len(a.queue) >= a.cfg.MaxQueue {
		a.mu.Unlock()
		a.shedQueueFull.Add(1)
		return nil, &apiError{
			status: 503, code: "queue_full", retryable: true,
			retryAfter: retryHint(expectedCost),
			message: fmt.Sprintf("admission queue full (%d running, %d queued)",
				a.cfg.MaxConcurrent, a.cfg.MaxQueue),
		}
	}
	w := &waiter{pri: priorityOf(ctx), seq: a.seq, ready: make(chan struct{})}
	a.seq++
	a.queue = append(a.queue, w)
	a.mu.Unlock()
	a.queued.Add(1)

	start := time.Now()
	var timeout <-chan time.Time
	if a.cfg.QueueTimeout > 0 {
		t := time.NewTimer(a.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ready:
		a.waits.observe(time.Since(start))
		a.admitted.Add(1)
		// The slot is ours, but the wait may have eaten the deadline.
		if !deadline.IsZero() && time.Until(deadline) < expectedCost {
			a.release()
			return nil, a.deadlineShed(expectedCost, time.Since(start), deadline)
		}
		return a.release, nil
	case <-timeout:
		if !a.abandon(w) {
			// Granted while the timer fired: pass the slot on.
			a.release()
		}
		a.shedQueueTimeout.Add(1)
		return nil, &apiError{
			status: 503, code: "queue_timeout", retryable: true,
			retryAfter: retryHint(expectedCost),
			message:    fmt.Sprintf("no search slot within %v", a.cfg.QueueTimeout),
		}
	case <-ctx.Done():
		if !a.abandon(w) {
			a.release()
		}
		return nil, nil // caller maps ctx.Err() (499 vs 504)
	}
}

// deadlineShed counts and describes one deadline_unmeetable shed: the
// predicted remaining cost cannot fit before the request deadline. wait is
// any queue time already spent (folded into the Retry-After hint).
func (a *admission) deadlineShed(expectedCost, wait time.Duration, deadline time.Time) *apiError {
	a.shedDeadline.Add(1)
	return &apiError{
		status: 503, code: "deadline_unmeetable", retryable: true,
		retryAfter: retryHint(expectedCost + wait),
		message: fmt.Sprintf("expected search cost %v cannot meet the request deadline (%v remaining)",
			expectedCost.Round(time.Millisecond), time.Until(deadline).Round(time.Millisecond)),
	}
}

// release frees one slot: the best waiter (highest priority, then FIFO)
// inherits it directly; with an empty queue the slot returns to the pool.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	best := -1
	for i, w := range a.queue {
		if best < 0 || w.pri > a.queue[best].pri ||
			(w.pri == a.queue[best].pri && w.seq < a.queue[best].seq) {
			best = i
		}
	}
	if best < 0 {
		a.inUse--
		return
	}
	w := a.queue[best]
	a.queue = append(a.queue[:best], a.queue[best+1:]...)
	w.granted = true
	close(w.ready)
}

// abandon removes w from the queue, reporting whether it was still waiting.
// False means release() granted it concurrently — the caller owns the slot
// and must dispose of it.
func (a *admission) abandon(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return false
	}
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return true
		}
	}
	return true // not granted and not queued: already removed
}

// depth reports current queue occupancy (for /v1/stats).
func (a *admission) depth() (running, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse, len(a.queue)
}

// ctxDone is the slice of context.Context admit needs, plus the priority
// hint carried via the request (see priorityOf) — kept as an interface so
// admission has no HTTP types in it.
type ctxDone interface {
	Done() <-chan struct{}
	Value(key any) any
}

// priorityCtxKey carries the request's priority through the context into the
// queue ordering.
type priorityCtxKey struct{}

func priorityOf(ctx ctxDone) int {
	if v, ok := ctx.Value(priorityCtxKey{}).(int); ok {
		return v
	}
	return 0
}
