package exec

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestConflictCap(t *testing.T) {
	cases := []struct {
		conflicts int64
		want      int64
	}{
		{0, -1}, {-1, 0}, {-100, 0}, {1, 1}, {500000, 500000},
	}
	for _, c := range cases {
		if got := (Budget{Conflicts: c.conflicts}).ConflictCap(); got != c.want {
			t.Errorf("ConflictCap(%d) = %d, want %d", c.conflicts, got, c.want)
		}
	}
}

func TestBindTimeout(t *testing.T) {
	ctx, cancel := Budget{Timeout: time.Millisecond}.Bind(context.Background())
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("timeout budget did not set a deadline")
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("timeout budget never expired")
	}
	// No timeout: cancellation still propagates from the parent.
	parent, pcancel := context.WithCancel(context.Background())
	ctx2, cancel2 := Budget{}.Bind(parent)
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("unlimited budget set a deadline")
	}
	pcancel()
	if ctx2.Err() == nil {
		t.Fatal("parent cancellation did not propagate")
	}
	// Nil parent is valid.
	ctx3, cancel3 := Budget{}.Bind(nil)
	if ctx3.Err() != nil {
		t.Fatal("nil-parent bind arrived cancelled")
	}
	cancel3()
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("different masters derived the same seed")
	}
	if DeriveSeed(7, 3) != DeriveSeed(7, 3) {
		t.Fatal("DeriveSeed is not a pure function")
	}
}

// TestCollectOrdered pins the pool's core contract: results are emitted
// in task order at every worker count, and each task sees its own index.
func TestCollectOrdered(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 2, 4, 9} {
		var got []int
		Collect(context.Background(), workers, n, func(_ context.Context, i int) int {
			if i%3 == 0 {
				time.Sleep(time.Duration(i%5) * time.Millisecond) // jitter completion order
			}
			return i * i
		}, func(i, r int) {
			if r != i*i {
				t.Fatalf("workers=%d: task %d returned %d", workers, i, r)
			}
			got = append(got, i)
		})
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d results", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: out-of-order emit %v", workers, got)
			}
		}
	}
}

// TestCollectDeterministicSeeds verifies the combination used by the
// experiment sweeps: per-task derived seeds produce identical outputs at
// any worker count.
func TestCollectDeterministicSeeds(t *testing.T) {
	const n = 32
	sweep := func(workers int) []int64 {
		out := make([]int64, 0, n)
		Collect(context.Background(), workers, n, func(_ context.Context, i int) int64 {
			return DeriveSeed(42, i)
		}, func(_ int, r int64) { out = append(out, r) })
		return out
	}
	ref := sweep(1)
	for _, workers := range []int{2, 4, 8} {
		got := sweep(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: seed stream diverged at %d", workers, i)
			}
		}
	}
}

func TestCollectCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	emitted := 0
	Collect(ctx, 4, 1000, func(ctx context.Context, i int) int {
		if started.Add(1) == 8 {
			cancel()
		}
		return i
	}, func(i, r int) { emitted++ })
	if started.Load() >= 1000 {
		t.Fatal("cancellation did not stop the dispenser")
	}
	if emitted > int(started.Load()) {
		t.Fatalf("emitted %d results but only %d tasks ran", emitted, started.Load())
	}
	cancel()
}

func TestCollectSerialPathCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	Collect(ctx, 1, 100, func(ctx context.Context, i int) int {
		ran++
		if i == 5 {
			cancel()
		}
		return i
	}, func(int, int) {})
	if ran != 6 {
		t.Fatalf("serial path ran %d tasks after cancellation at 5", ran)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive worker counts must resolve to at least 1")
	}
	if Workers(7) != 7 {
		t.Fatal("explicit worker count not honored")
	}
}
