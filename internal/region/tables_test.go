package region

// Pins for the per-op generation overheads this package removed: the
// jitter bytes against fmt and hash/fnv, and the footprint-walk memo's
// fill-once and cancellation behaviour.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"leodivide/internal/hexgrid"
	"leodivide/internal/memo"
)

func TestJitterInputMatchesFmt(t *testing.T) {
	for _, seed := range []int64{0, -1, 1, 42, math.MaxInt64, math.MinInt64} {
		for _, code := range []string{"", "01001", "90999", "a:b"} {
			want := fmt.Sprintf("%d:%s", seed, code)
			if got := string(jitterInput(nil, seed, code)); got != want {
				t.Errorf("jitterInput(%d, %q) = %q, want %q", seed, code, got, want)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%d:%s", seed, code)
			if got, want := rankJitter(seed, code), float64(h.Sum64()%10000)/10000; got != want {
				t.Errorf("rankJitter(%d, %q) = %v, want %v", seed, code, got, want)
			}
		}
	}
}

// withFreshBoxGrids runs the test against an empty footprint memo.
func withFreshBoxGrids(t *testing.T) {
	t.Helper()
	saved := boxGrids
	boxGrids = memo.New(memo.Options[[]hexgrid.CellID]{MaxEntries: 16})
	t.Cleanup(func() { boxGrids = saved })
}

func TestBoxCellsConcurrentFirstCallsFillOnce(t *testing.T) {
	withFreshBoxGrids(t)
	s := testSpec()
	const n = 8
	got := make([][]hexgrid.CellID, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = boxCells(context.Background(), s)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if len(got[i]) == 0 || &got[i][0] != &got[0][0] {
			t.Fatalf("call %d did not share the one walk", i)
		}
	}
	if _, misses, _, _ := boxGrids.Counters(); misses != 1 {
		t.Errorf("%d walks for %d concurrent first calls, want 1", misses, n)
	}
}

func TestBoxCellsWaiterHonoursCtx(t *testing.T) {
	withFreshBoxGrids(t)
	s := testSpec()
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := boxGrids.Do(context.Background(), boxKey(s), func() ([]hexgrid.CellID, error) {
			close(started)
			<-release
			return nil, nil
		})
		leaderDone <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waited := make(chan error, 1)
	go func() {
		_, err := boxCells(ctx, s)
		waited <- err
	}()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter blocked on another caller's walk")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader fill: %v", err)
	}
}

// TestBoxKeyDistinguishesFootprints: specs differing only in one
// footprint bound or the resolution get their own walks.
func TestBoxKeyDistinguishesFootprints(t *testing.T) {
	base := testSpec()
	keys := map[string]bool{boxKey(base): true}
	for _, mut := range []func(*SyntheticSpec){
		func(s *SyntheticSpec) { s.Resolution = 4 },
		func(s *SyntheticSpec) { s.LatMinDeg = math.Nextafter(s.LatMinDeg, 0) },
		func(s *SyntheticSpec) { s.LatMaxDeg++ },
		func(s *SyntheticSpec) { s.LngMinDeg-- },
		func(s *SyntheticSpec) { s.LngMaxDeg++ },
	} {
		s := base
		mut(&s)
		k := boxKey(s)
		if keys[k] {
			t.Errorf("footprint %+v shares a key", s)
		}
		keys[k] = true
	}
}
