// Package montecarlo runs deterministic, parallel Monte-Carlo sampling.
//
// Every sample index derives its own PRNG sub-stream from the experiment
// seed, so results are bit-identical regardless of GOMAXPROCS or
// scheduling order — a requirement for the reproducibility claims of the
// study (and for stable golden tests).
//
// There are two entry points: SampleCtx for scalar samples and
// SampleFlatCtx for vector-valued ones. Both check ctx for cancellation
// once per worker chunk of checkEvery samples and return ctx's error
// once any worker observes it. A context that is never cancelled changes
// nothing: the same sub-stream derivation runs in the same index order,
// so context.Background() and a live context give bit-identical results.
// The package also keeps a process-wide count of evaluated samples for
// service metrics (ntvsim_mc_samples_evaluated_total).
//
// When the context carries a telemetry.Progress reporter, each entry
// point announces its sample count on entry and every worker ticks the
// reporter once per checkEvery-sample chunk, so callers can watch
// samples-done/samples-total while a sweep runs. Without a reporter the
// loops are unchanged — the reporter pointer is nil and every tick is a
// nil-receiver no-op.
//
// The same chunk boundary hosts a fault-injection hook
// (faults.SiteMonteCarloChunk) that is inert unless the context carries
// an armed faults.Injector — tests use it to panic or fail a sampling
// loop at a deterministic sample index. A panic in fn (injected or
// real) never unwinds a worker goroutine: it is contained and re-raised
// on the calling goroutine with the original stack attached.
//
// # Allocation discipline
//
// The sampling loops are the hot path of every figure and table in the
// study, so they are allocation-free per sample: each worker owns one
// rng.Stream that is Reset (in place, no heap) to the per-index
// sub-stream before every fn call, which is bit-identical to handing fn
// a fresh rng.NewSub(seed, i). The only allocations are per call —
// the result buffers and one stream per worker — and alloc-regression
// tests in this package enforce that bound.
//
// SampleFlatCtx returns all n×width values in one flat row-major slab,
// sample i occupying slab[i*width : (i+1)*width]. A []float64 slab is
// opaque to the garbage collector, where n row headers would be a
// pointer-dense array it must scan; callers that want per-sample rows
// slice them out of the slab themselves.
package montecarlo

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/ntvsim/ntvsim/internal/faults"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// checkEvery is the cancellation-poll granularity: each worker checks
// ctx.Done() once per checkEvery evaluated samples, bounding the extra
// work after cancellation to checkEvery·workers samples.
const checkEvery = 64

// samplesEvaluated counts every fn invocation completed by this package
// across all entry points, for service-level metrics.
var samplesEvaluated atomic.Uint64

func init() {
	telemetry.Default.CounterFunc("ntvsim_mc_samples_evaluated_total",
		"Monte-Carlo sample evaluations completed since process start.",
		func() float64 { return float64(samplesEvaluated.Load()) })
}

// SampleCtx evaluates fn for n independent sample indices and returns
// the values in index order. Each invocation receives a PRNG stream
// derived from (seed, index). Workers poll ctx every checkEvery samples,
// and the call returns ctx's error once any worker observes
// cancellation.
func SampleCtx(ctx context.Context, seed uint64, n int, fn func(r *rng.Stream) float64) ([]float64, error) {
	out := make([]float64, n)
	prog := telemetry.ProgressFrom(ctx)
	prog.AddTotal(int64(n))
	if err := parallelFor(ctx, prog, seed, n, func(i int, r *rng.Stream) {
		out[i] = fn(r)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SampleFlatCtx evaluates a vector-valued fn for n sample indices and
// returns the n×width results as one flat row-major slab, sample i
// occupying slab[i*width : (i+1)*width]. fn writes its outputs into dst,
// a view of exactly that row whose capacity is pinned to width, so an
// append inside fn reallocates instead of writing into the next row.
// Cancellation works as in SampleCtx. The slab is the allocation floor
// of the vector path — one pointer-free allocation, nothing per row.
func SampleFlatCtx(ctx context.Context, seed uint64, n, width int, fn func(r *rng.Stream, dst []float64)) ([]float64, error) {
	// One row-major slab for all rows: a single allocation instead of n,
	// and cache-friendly sequential layout for the quantile/sort passes
	// downstream.
	slab := make([]float64, n*width)
	prog := telemetry.ProgressFrom(ctx)
	prog.AddTotal(int64(n))
	if err := parallelFor(ctx, prog, seed, n, func(i int, r *rng.Stream) {
		fn(r, slab[i*width:(i+1)*width:(i+1)*width])
	}); err != nil {
		return nil, err
	}
	return slab, nil
}

// parallelFor runs body(i, r) for i in [0, n) across GOMAXPROCS workers,
// returning ctx's error if cancellation is observed before completion.
// Each worker owns one rng.Stream, reset per index; body must not retain
// r beyond the call.
func parallelFor(ctx context.Context, prog *telemetry.Progress, seed uint64, n int, body func(i int, r *rng.Stream)) error {
	workers := workerCount(n)
	if workers <= 1 {
		return runSpan(ctx, prog, seed, 0, n, body)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := span(n, workers, w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer containPanic(&errs[w])
			errs[w] = runSpan(ctx, prog, seed, lo, hi, body)
		}(w, lo, hi)
	}
	wg.Wait()
	return firstError(errs)
}

// workerPanic carries a panic from a sampling worker goroutine back to
// the caller, where it is re-raised: a panic in fn must not unwind a
// bare worker goroutine (that would kill the process with no recovery
// point), but it must still surface as a panic — masking it as an error
// would hide kernel bugs. It keeps the worker's original stack, which
// the jobs layer's recover captures via the Stack method.
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) Error() string  { return p.String() }
func (p *workerPanic) String() string { return fmt.Sprintf("montecarlo: worker panic: %v", p.val) }

// Stack returns the goroutine stack captured where the panic happened.
func (p *workerPanic) Stack() []byte { return p.stack }

// containPanic is deferred in every sampling worker goroutine. It costs
// nothing on the happy path (the *workerPanic is only allocated when a
// panic is actually in flight, keeping the alloc-regression bounds).
func containPanic(slot *error) {
	if r := recover(); r != nil {
		*slot = &workerPanic{val: r, stack: debug.Stack()}
	}
}

// firstError returns the first non-nil worker error — except that a
// contained panic takes precedence and is re-raised on the caller's
// goroutine, restoring the synchronous-panic contract of the entry
// points regardless of worker count.
func firstError(errs []error) error {
	for _, err := range errs {
		if p, ok := err.(*workerPanic); ok {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSpan executes body over [lo, hi) in index order, polling ctx and
// ticking the progress reporter once per checkEvery iterations, and
// crediting completed evaluations to the process-wide sample counter.
// A nil prog costs one pointer comparison per chunk.
//
// The single worker-owned stream is Reset to the (seed, i) sub-stream
// before each body call — bit-identical to rng.NewSub(seed, i) but
// without the per-sample heap allocation (one stream per span instead).
func runSpan(ctx context.Context, prog *telemetry.Progress, seed uint64, lo, hi int, body func(i int, r *rng.Stream)) error {
	var stream rng.Stream
	done := ctx.Done()
	inj := faults.From(ctx) // nil outside fault-injection tests
	evaluated, reported := 0, 0
	defer func() {
		samplesEvaluated.Add(uint64(evaluated))
		prog.Add(int64(evaluated - reported))
	}()
	for i := lo; i < hi; i++ {
		if evaluated%checkEvery == 0 {
			if prog != nil && evaluated > reported {
				prog.Add(int64(evaluated - reported))
				reported = evaluated
			}
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if inj != nil {
				if err := inj.Fire(ctx, faults.SiteMonteCarloChunk); err != nil {
					return err
				}
			}
		}
		stream.Reset(seed, i)
		body(i, &stream)
		evaluated++
	}
	return nil
}

func workerCount(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// span returns the half-open index range assigned to worker w of workers.
func span(n, workers, w int) (lo, hi int) {
	lo = n * w / workers
	hi = n * (w + 1) / workers
	return lo, hi
}
