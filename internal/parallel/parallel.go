// Package parallel is the execution layer of the offline pipelines: a
// bounded worker pool with ordered fan-out/fan-in, error aggregation and
// context cancellation, built only on the standard library.
//
// The package exists to make the expensive offline phases (fuzzing
// campaigns, profiler ranking, the experiment tables) scale with cores
// while staying bit-for-bit deterministic. The determinism contract is:
// work items are identified by index, each item derives all of its
// stochastic state from its own index/label (never from a shared stream),
// and results land in input order regardless of which worker ran them or
// when. Under that contract, Map output is byte-identical at any
// parallelism level, including 1.
//
// Each pool publishes worker-utilisation gauges and a per-shard latency
// histogram under its name, so speedups (and stragglers) are observable in
// telemetry.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/aegis/internal/telemetry"
)

// Workers resolves a requested parallelism: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged. Pipelines
// store the raw request in their Config and resolve it at run time, so a
// zero value always tracks the machine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool is a named, bounded worker pool. The name keys the pool's telemetry
// (worker gauges, shard histograms); the worker count bounds concurrency
// for every Map run on the pool. A Pool is stateless between runs
// and safe for concurrent use.
type Pool struct {
	name    string
	workers int

	gWorkers *telemetry.Gauge
	gActive  *telemetry.Gauge
	hShard   *telemetry.Histogram
	cItems   *telemetry.Counter
	cErrors  *telemetry.Counter
}

// NewPool builds a pool with Workers(workers) workers named for telemetry.
func NewPool(name string, workers int) *Pool {
	w := Workers(workers)
	p := &Pool{
		name:     name,
		workers:  w,
		gWorkers: telemetry.G("parallel_pool_workers", telemetry.L("pool", name)),
		gActive:  telemetry.G("parallel_workers_active", telemetry.L("pool", name)),
		hShard:   telemetry.H("parallel_shard_seconds", telemetry.DefBuckets, telemetry.L("pool", name)),
		cItems:   telemetry.C("parallel_items_total", telemetry.L("pool", name)),
		cErrors:  telemetry.C("parallel_item_errors_total", telemetry.L("pool", name)),
	}
	p.gWorkers.Set(float64(w))
	return p
}

// Name returns the pool's telemetry name.
func (p *Pool) Name() string { return p.name }

// itemError records one failed index for deterministic aggregation.
type itemError struct {
	index int
	err   error
}

// Map runs fn(ctx, i) for every i in [0, n) across the pool's workers and
// returns the results in input order: out[i] is fn's value for item i,
// regardless of scheduling. The first item error cancels the derived
// context so unstarted items are skipped (their slots keep zero values);
// items already in flight run to completion. All item errors are
// aggregated, ordered by index, and returned joined, each wrapped with its
// index. A nil/cancelled parent context cancels the whole run.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.workers
	if workers > n {
		workers = n
	}

	var (
		next  atomic.Int64
		mu    sync.Mutex
		fails []itemError
		wg    sync.WaitGroup
	)
	timed := telemetry.Enabled()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.gActive.Add(1)
			defer p.gActive.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if runCtx.Err() != nil {
					return
				}
				var start time.Time
				if timed {
					start = time.Now()
				}
				v, err := fn(runCtx, i)
				if timed {
					p.hShard.Observe(time.Since(start).Seconds())
				}
				p.cItems.Inc()
				if err != nil {
					p.cErrors.Inc()
					mu.Lock()
					fails = append(fails, itemError{index: i, err: err})
					mu.Unlock()
					cancel()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	if len(fails) == 0 {
		// Surface parent cancellation even when no item observed it.
		return out, ctx.Err()
	}
	sort.Slice(fails, func(a, b int) bool { return fails[a].index < fails[b].index })
	errs := make([]error, 0, len(fails))
	for _, f := range fails {
		errs = append(errs, fmt.Errorf("%s item %d: %w", p.name, f.index, f.err))
	}
	return out, errors.Join(errs...)
}
