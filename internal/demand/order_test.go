package demand

// Reference pins for the key-column sorts: NewDistribution and IDOrder
// against the struct sorts they replaced, with heavy ties and unsorted
// input.

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

// referenceDistributionOrder is NewDistribution's ordering as first
// written: a sort.Slice of the kept cells by descending locations, then
// ascending ID.
func referenceDistributionOrder(cells []Cell) []Cell {
	var kept []Cell
	for _, c := range cells {
		if c.Locations > 0 {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Locations != kept[j].Locations {
			return kept[i].Locations > kept[j].Locations
		}
		return kept[i].ID < kept[j].ID
	})
	return kept
}

// randomCells draws n cells with distinct IDs, few distinct location
// counts (zeros included) and per-cell counties and centers, in
// shuffled order.
func randomCells(rng *rand.Rand, n int) []Cell {
	ids := make(map[hexgrid.CellID]bool, n)
	cells := make([]Cell, 0, n)
	for len(cells) < n {
		id := hexgrid.LatLngToCell(geo.LatLng{Lat: -80 + rng.Float64()*160, Lng: -180 + rng.Float64()*360}, 3)
		if ids[id] {
			continue
		}
		ids[id] = true
		cells = append(cells, Cell{
			ID:         id,
			Locations:  rng.Intn(5),
			CountyFIPS: string(rune('a' + rng.Intn(26))),
			Center:     id.LatLng(),
		})
	}
	return cells
}

// TestNewDistributionMatchesReferenceOrder covers both rankings:
// shuffled input, and input already in ID order (as generators emit).
func TestNewDistributionMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		cells := randomCells(rng, 1+rng.Intn(500))
		if trial%2 == 1 {
			slices.SortFunc(cells, func(a, b Cell) int { return cmp.Compare(a.ID, b.ID) })
		}
		want := referenceDistributionOrder(cells)
		if len(want) == 0 {
			continue
		}
		d, err := distOf(cells)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Cell, d.NumCells())
		for i := range got {
			got[i] = d.Cell(i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d cells): order differs from the reference", trial, len(cells))
		}
	}
}

// TestIDOrder: ascending IDs, duplicates in input order — what a
// stable sort by ID gives.
func TestIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		ids := make([]hexgrid.CellID, rng.Intn(300))
		for i := range ids {
			ids[i] = hexgrid.CellID(1 + rng.Intn(40))
		}
		want := make([]int32, len(ids))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return ids[want[a]] < ids[want[b]] })
		if got := IDOrder(ids); !slices.Equal(got, want) {
			t.Fatalf("trial %d: IDOrder(%v) = %v, want %v", trial, ids, got, want)
		}
	}
}
