package region

// Pins for the per-op generation overheads this package removed: the
// jitter bytes against fmt and hash/fnv, the footprint-walk memo's
// fill-once and cancellation behaviour, and the synthetic body-count
// memo.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"leodivide/internal/hexgrid"
	"leodivide/internal/memo"
)

// The jitter hashes what fmt prints for "%d:%s", the seed's part once.
func TestJitterInputMatchesFmt(t *testing.T) {
	for _, seed := range []int64{0, -1, 1, 42, math.MaxInt64, math.MinInt64} {
		for _, code := range []string{"", "01001", "90999", "a:b"} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d:%s", seed, code)
			if got, want := rankJitter(jitterPrefix(seed), code), float64(h.Sum64()%10000)/10000; got != want {
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

// Generation orders sites by candidate index (sitePool), which is ID
// order only because the candidates ascend by ID.
func TestBoxCellsAscendByID(t *testing.T) {
	for _, s := range []SyntheticSpec{testSpec(), brazilRuralSpec, taipeiDenseSpec} {
		ids, err := boxCells(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 || !slices.IsSorted(ids) {
			t.Errorf("%s: %d candidates, not in ascending ID order", s.Key, len(ids))
		}
	}
}

// sitePool keeps every candidate index but the peaks' cells, in order.
func TestSitePool(t *testing.T) {
	candidates := []hexgrid.CellID{10, 20, 30, 40, 50}
	for _, tc := range []struct {
		peaks []hexgrid.CellID
		want  []int32
	}{
		{nil, []int32{0, 1, 2, 3, 4}},
		{[]hexgrid.CellID{50, 10}, []int32{1, 2, 3}},
		{[]hexgrid.CellID{35, 30, 5}, []int32{0, 1, 3, 4}},
	} {
		if got := sitePool(candidates, tc.peaks); !slices.Equal(got, tc.want) {
			t.Errorf("sitePool(peaks %v) = %v, want %v", tc.peaks, got, tc.want)
		}
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

// TestSyntheticBodyCountsMemo: generations of one region at one scale,
// whatever their seed, split the body counts once and share the split;
// a changed anchor, total or cell count gets its own entry, and an
// error is not cached.
func TestSyntheticBodyCountsMemo(t *testing.T) {
	saved := bodyCountsMemo
	bodyCountsMemo = memo.New(memo.Options[[]int]{MaxEntries: 8})
	t.Cleanup(func() { bodyCountsMemo = saved })
	r, err := NewSynthetic(brazilRuralSpec)
	if err != nil {
		t.Fatal(err)
	}
	const gens = 3
	for seed := int64(1); seed <= gens; seed++ {
		if _, err := r.Generate(context.Background(), GenConfig{Seed: seed, Scale: 0.05}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if hits, misses, coalesced, evictions := bodyCountsMemo.Counters(); hits != gens-1 || misses != 1 || coalesced != 0 || evictions != 0 {
		t.Errorf("after %d generations: hits/misses/coalesced/evictions = %d/%d/%d/%d, want %d/1/0/0",
			gens, hits, misses, coalesced, evictions, gens-1)
	}

	bodyCountsMemo = memo.New(memo.Options[[]int]{MaxEntries: 8})
	s := testSpec()
	other := s
	other.DensityAnchors = slices.Clone(s.DensityAnchors)
	last := &other.DensityAnchors[len(other.DensityAnchors)-1]
	last.Weight = math.Nextafter(last.Weight, math.Inf(1))
	calls := []struct {
		spec     SyntheticSpec
		total, n int
	}{{s, 5000, 40}, {other, 5000, 40}, {s, 5001, 40}, {s, 5000, 41}, {s, 5000, 40}}
	for _, c := range calls {
		got, err := c.spec.memoBodyCounts(context.Background(), c.total, c.n)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := c.spec.bodyCounts(c.total, c.n)
		if !slices.Equal(got, want) {
			t.Errorf("memoBodyCounts(%d, %d) differs from bodyCounts", c.total, c.n)
		}
	}
	if hits, misses, _, _ := bodyCountsMemo.Counters(); hits != 1 || misses != 4 {
		t.Errorf("distinct keys: hits/misses = %d/%d, want 1/4", hits, misses)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.memoBodyCounts(context.Background(), 3, 4); err == nil || !strings.Contains(err.Error(), "cannot cover") {
			t.Errorf("too few locations: err = %v, want the bodyCounts error", err)
		}
	}
	if hits, misses, _, _ := bodyCountsMemo.Counters(); hits != 1 || misses != 6 {
		t.Errorf("after two failed fills: hits/misses = %d/%d, want 1/6", hits, misses)
	}
}
