package bdc

// Pins for the seed-invariant generation tables: the US cell table
// against a from-scratch classification and a recorded digest, its
// memo's fill-once and cancellation behaviour, and the body-count memo.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/memo"
	"leodivide/internal/par"
	"leodivide/internal/usgeo"
)

// countyFor and nearestCounty are the per-op county resolution the
// table replaced: the first tile containing p, else the tile whose
// center is nearest.
func countyFor(counties []usgeo.County, p geo.LatLng) (usgeo.County, bool) {
	for _, c := range counties {
		if c.Contains(p) {
			return c, true
		}
	}
	return usgeo.County{}, false
}

func nearestCounty(counties []usgeo.County, p geo.LatLng) usgeo.County {
	best := counties[0]
	bestD := math.Inf(1)
	for _, c := range counties {
		d := geo.DistanceKm(p, c.Center())
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// referenceUSCells is the grid walk the table replaced: all 20 faces,
// every cell classified by state, bucketed by state abbreviation.
func referenceUSCells(res hexgrid.Resolution) map[string][]hexgrid.CellID {
	m := make(map[string][]hexgrid.CellID)
	hexgrid.ForEachCell(res, func(id hexgrid.CellID) {
		center := id.LatLng()
		if center.Lat < 18 || center.Lat > 67 || center.Lng < -169 || center.Lng > -66 {
			return
		}
		if s, ok := usgeo.StateAt(center); ok {
			m[s.Abbr] = append(m[s.Abbr], id)
		}
	})
	return m
}

// TestUSCellsMatchFromScratch checks every row of the US cell table,
// built fresh: the rows ascend by ID, each state's rows hold exactly
// the full-globe walk's cells for it, every county equals the
// from-scratch countyFor/nearestCounty result over a fresh tiling, and
// a build with more workers gives the same columns.
func TestUSCellsMatchFromScratch(t *testing.T) {
	for _, res := range []hexgrid.Resolution{4, 5} {
		if res == 5 && testing.Short() {
			continue
		}
		g, err := buildUSGrid(context.Background(), res, 1)
		if err != nil {
			t.Fatal(err)
		}
		g3, err := buildUSGrid(context.Background(), res, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.ids, g3.ids) || !slices.Equal(g.state, g3.state) || !slices.Equal(g.county, g3.county) ||
			!slices.EqualFunc(g.rows, g3.rows, slices.Equal[[]int32]) {
			t.Fatalf("res %d: the 3-worker build differs from the 1-worker build", res)
		}
		n := len(g.ids)
		if len(g.state) != n || len(g.county) != n {
			t.Fatalf("res %d: ragged columns", res)
		}
		if !slices.IsSorted(g.ids) {
			t.Fatalf("res %d: table rows do not ascend by ID", res)
		}
		ref := referenceUSCells(res)
		states := usgeo.States()
		if len(g.rows) != len(states) || len(g.tiles) != len(states) {
			t.Fatalf("res %d: table has %d states, want %d", res, len(g.rows), len(states))
		}
		covered := 0
		for i, s := range states {
			var ids []hexgrid.CellID
			for _, row := range g.rows[i] {
				ids = append(ids, g.ids[row])
				if int(g.state[row]) != i {
					t.Fatalf("res %d %s: row %d labelled state %d", res, s.Abbr, row, g.state[row])
				}
			}
			covered += len(ids)
			if !slices.Equal(ids, ref[s.Abbr]) {
				t.Fatalf("res %d %s: %d cells, reference walk %d", res, s.Abbr, len(ids), len(ref[s.Abbr]))
			}
			fresh := usgeo.Counties(s)
			for _, row := range g.rows[i] {
				center := g.ids[row].LatLng()
				want, ok := countyFor(fresh, center)
				if !ok {
					want = nearestCounty(fresh, center)
				}
				if got := g.tiles[i][g.county[row]]; got != want {
					t.Fatalf("res %d %s: cell %v in county %s, want %s", res, s.Abbr, g.ids[row], got.FIPS, want.FIPS)
				}
			}
		}
		if covered != n {
			t.Fatalf("res %d: state rows cover %d of %d table rows", res, covered, n)
		}
	}
}

// gridDigest is a SHA-256 over the table's ids, state and county
// columns and each state's rows, little-endian, each column and each
// state's rows prefixed by its length.
func gridDigest(g *usGrid) string {
	h := sha256.New()
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.ids)))
	for _, id := range g.ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.state)))
	b = append(b, g.state...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.county)))
	for _, c := range g.county {
		b = binary.LittleEndian.AppendUint16(b, c)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.rows)))
	for _, rows := range g.rows {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(rows)))
		for _, row := range rows {
			b = binary.LittleEndian.AppendUint32(b, uint32(row))
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// TestUSGridDigest pins the US cell table byte for byte at resolutions
// 4 and 5, at 1 and 3 workers. The digests were recorded before the
// walk gained its vector prefilter and the state and county lookups
// their bucket indexes; any change to the walk or the lookups must
// leave them as they are.
func TestUSGridDigest(t *testing.T) {
	want := map[hexgrid.Resolution]string{
		4: "73f5f4e2970638ced0c61c3c720b59b83cf7bd41390063688656ec0b5cd18371",
		5: "677a37a6815d5cc7ca39584a692225dbe084acd989893767aa549203473b481a",
	}
	for _, res := range []hexgrid.Resolution{4, 5} {
		for _, workers := range []int{1, 3} {
			g, err := buildUSGrid(context.Background(), res, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := gridDigest(g); got != want[res] {
				t.Errorf("res %d, %d workers: grid digest %s, want %s", res, workers, got, want[res])
			}
		}
	}
}

// withFreshGrids runs the test against an empty US cell table memo.
func withFreshGrids(t *testing.T) {
	t.Helper()
	saved := usGrids
	usGrids = memo.New(memo.Options[*usGrid]{MaxEntries: int(hexgrid.MaxResolution) + 1})
	t.Cleanup(func() { usGrids = saved })
}

// TestUSCellsConcurrentFirstCallsFillOnce: N concurrent first calls for
// one resolution build the table once and all share it, and every call
// but the builder's counts as a cache hit.
func TestUSCellsConcurrentFirstCallsFillOnce(t *testing.T) {
	withFreshGrids(t)
	const n = 8
	hitsBefore := metricGridCacheHit.Value()
	grids := make([]*usGrid, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			grids[i], errs[i] = usCells(context.Background(), 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if grids[i] != grids[0] {
			t.Fatalf("call %d got its own table", i)
		}
	}
	if _, misses, _, _ := usGrids.Counters(); misses != 1 {
		t.Errorf("%d fills for %d concurrent first calls, want 1", misses, n)
	}
	if got := metricGridCacheHit.Value() - hitsBefore; got != n-1 {
		t.Errorf("cache_hits rose by %d, want %d", got, n-1)
	}
}

// TestUSCellsWaiterHonoursCtx: a caller whose ctx is cancelled while
// another caller's cold fill is still running returns ctx.Err() at
// once instead of waiting the fill out.
func TestUSCellsWaiterHonoursCtx(t *testing.T) {
	withFreshGrids(t)
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := usGrids.Do(context.Background(), gridKey(3), func() (*usGrid, error) {
			close(started)
			<-release
			return buildUSGrid(context.Background(), 3, 1)
		})
		leaderDone <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waited := make(chan error, 1)
	go func() {
		_, err := usCells(ctx, 3)
		waited <- err
	}()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter blocked on another caller's fill")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader fill: %v", err)
	}
	if _, err := usCells(context.Background(), 3); err != nil {
		t.Fatalf("call after the fill: %v", err)
	}
}

// TestMemoBodyCounts: the memo returns bodyCounts' exact result, shares
// it across calls with one key, and keys on the anchors as well as the
// target.
func TestMemoBodyCounts(t *testing.T) {
	cfg := scaledConfig(1, 0.05)
	target := bodyTarget(cfg)
	a, err := cfg.memoBodyCounts(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.bodyCounts(target); !slices.Equal(a, want) {
		t.Fatalf("memoBodyCounts(%d) differs from bodyCounts", target)
	}
	b, err := cfg.memoBodyCounts(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("second call with the same key recomputed the counts")
	}
	other := cfg
	other.BodyAnchors = slices.Clone(cfg.BodyAnchors)
	other.BodyAnchors[len(other.BodyAnchors)-1].Locations++
	c, err := other.memoBodyCounts(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if want := other.bodyCounts(target); !slices.Equal(c, want) {
		t.Fatal("memoBodyCounts ignored a changed anchor")
	}
}

// TestGenerationMemosFillOnce is the work-count check for the two
// seed-invariant generation memos: generations at one scale, whatever
// their seed, build the US cell table and draw the body counts once,
// then only hit. Allocation counts cannot stand in for it: skipping
// the body-count memo costs CPU, not allocations.
func TestGenerationMemosFillOnce(t *testing.T) {
	withFreshGrids(t)
	saved := bodyCountsMemo
	bodyCountsMemo = memo.New(memo.Options[[]int]{MaxEntries: 8})
	t.Cleanup(func() { bodyCountsMemo = saved })
	const gens = 4
	for seed := int64(1); seed <= gens; seed++ {
		cfg := scaledConfig(seed, 0.02)
		cfg.Resolution = 4
		if _, err := GenerateCells(context.Background(), cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, m := range []struct {
		name     string
		counters func() (hits, misses, coalesced, evictions int64)
	}{
		{"usGrids", usGrids.Counters},
		{"bodyCountsMemo", bodyCountsMemo.Counters},
	} {
		hits, misses, coalesced, evictions := m.counters()
		if hits != gens-1 || misses != 1 || coalesced != 0 || evictions != 0 {
			t.Errorf("%s after %d generations: hits/misses/coalesced/evictions = %d/%d/%d/%d, want %d/1/0/0",
				m.name, gens, hits, misses, coalesced, evictions, gens-1)
		}
	}
}

// BenchmarkBuildUSGrid times the cold US cell table build at resolution
// 5 on one worker per CPU, the build a fresh process waits for.
func BenchmarkBuildUSGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := buildUSGrid(context.Background(), 5, par.Workers(0)); err != nil {
			b.Fatal(err)
		}
	}
}
