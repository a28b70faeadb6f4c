package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	p := NewPool("test-order", 8)
	out, err := Map(context.Background(), p, 100, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapDeterministicAcrossParallelism(t *testing.T) {
	run := func(workers int) []string {
		p := NewPool("test-det", workers)
		out, err := Map(context.Background(), p, 50, func(_ context.Context, i int) (string, error) {
			return fmt.Sprintf("item-%03d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := strings.Join(run(1), ",")
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := strings.Join(run(w), ","); got != serial {
			t.Errorf("parallelism %d diverged from serial", w)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	p := NewPool("test-bound", workers)
	_, err := Map(context.Background(), p, 64, func(_ context.Context, i int) (int, error) {
		cur := active.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent items, pool bound is %d", got, workers)
	}
}

func TestMapAggregatesErrorsInIndexOrder(t *testing.T) {
	errBoom := errors.New("boom")
	// Every item fails; several are in flight when the first cancel fires,
	// so the aggregate holds multiple errors which must come out sorted by
	// index, each wrapped with its index and pool name.
	var gate atomic.Bool
	p := NewPool("test-errs", 4)
	out, err := Map(context.Background(), p, 4, func(ctx context.Context, i int) (int, error) {
		if i == 3 {
			gate.Store(true)
		}
		for !gate.Load() { // hold until all four are claimed
			time.Sleep(10 * time.Microsecond)
		}
		return 0, fmt.Errorf("step %d: %w", i, errBoom)
	})
	if err == nil {
		t.Fatal("want aggregated error")
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("errors.Is(err, errBoom) = false: %v", err)
	}
	msg := err.Error()
	last := -1
	for i := 0; i < 4; i++ {
		pos := strings.Index(msg, fmt.Sprintf("test-errs item %d:", i))
		if pos < 0 {
			t.Fatalf("error for item %d missing from %q", i, msg)
		}
		if pos < last {
			t.Fatalf("errors not index-ordered: %q", msg)
		}
		last = pos
	}
	for i, v := range out {
		if v != 0 {
			t.Errorf("failed item %d left non-zero result %d", i, v)
		}
	}
}

func TestMapCancelsRemainingWorkOnError(t *testing.T) {
	var ran atomic.Int64
	p := NewPool("test-cancel", 2)
	_, err := Map(context.Background(), p, 1000, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first item fails")
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n == 1000 {
		t.Error("error did not cancel remaining items")
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool("test-parent", 4)
	var ran atomic.Int64
	_, err := Map(ctx, p, 100, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > int64(p.workers) {
		t.Errorf("cancelled run still executed %d items", n)
	}
}

func TestMapEmpty(t *testing.T) {
	p := NewPool("test-empty", 4)
	out, err := Map(context.Background(), p, 0, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Errorf("empty map = (%v, %v)", out, err)
	}
}

func TestPoolAccessors(t *testing.T) {
	p := NewPool("test-accessors", 5)
	if p.Name() != "test-accessors" {
		t.Errorf("Name() = %q", p.Name())
	}
	if p.workers != 5 {
		t.Errorf("workers = %d", p.workers)
	}
}
