package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// square returns a grid of cells computing i*i, where higher-indexed cells
// finish first (a stagger that exposes ordering bugs under parallelism).
func square(n int) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func(ctx context.Context) (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return cells
}

func TestRunCollectsInCellOrder(t *testing.T) {
	for _, parallel := range []int{1, 4, 16} {
		got, err := Run(context.Background(), square(12), Options{Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("parallel=%d: result[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

// TestRunFailFast: the first failure cancels the cells in flight and skips
// the unstarted ones. Every other cell blocks until its context is
// cancelled, so the outcome does not depend on which worker starts first.
func TestRunFailFast(t *testing.T) {
	var ran int64
	boom := errors.New("boom")
	cells := make([]Cell[int], 64)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func(ctx context.Context) (int, error) {
				atomic.AddInt64(&ran, 1)
				if i == 0 {
					return 0, boom
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
		}
	}
	_, err := Run(context.Background(), cells, Options{Parallel: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	if want := "cell-0"; err == nil || !errors.Is(err, boom) || !contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing cell %q", err, want)
	}
	if n := atomic.LoadInt64(&ran); n == 64 {
		t.Error("fail-fast did not skip any cells")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRunHonoursParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := make([]Cell[int], 32)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{Run: func(ctx context.Context) (int, error) {
			if i == 0 {
				cancel()
			}
			return i, nil
		}}
	}
	_, err := Run(ctx, cells, Options{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestRunPropagatesContextValues(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	cells := []Cell[string]{{Run: func(ctx context.Context) (string, error) {
		s, _ := ctx.Value(key{}).(string)
		return s, nil
	}}}
	got, err := Run(ctx, cells, Options{})
	if err != nil || got[0] != "v" {
		t.Fatalf("cell context not derived from parent: got %q, %v", got[0], err)
	}
}

func TestRunProgress(t *testing.T) {
	var dones []int
	var total int
	cells := square(8)
	_, err := Run(context.Background(), cells, Options{
		Parallel: 3,
		Progress: func(done, tot int, label string) {
			dones = append(dones, done)
			total = tot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(cells) || total != len(cells) {
		t.Fatalf("progress fired %d times (total=%d), want %d", len(dones), total, len(cells))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("progress done sequence %v not monotonic", dones)
			break
		}
	}
}

func TestRunEmptyGrid(t *testing.T) {
	got, err := Run[int](context.Background(), nil, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty grid: got %v, %v", got, err)
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(7); w != 7 {
		t.Errorf("Workers(7) = %d", w)
	}
}

func TestSeedStableAndDistinct(t *testing.T) {
	if Seed("a", "b") != Seed("a", "b") {
		t.Error("Seed not stable across calls")
	}
	if Seed("a", "b") == Seed("ab") || Seed("a", "b") == Seed("b", "a") {
		t.Error("Seed does not separate label boundaries")
	}
}
