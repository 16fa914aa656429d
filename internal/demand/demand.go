// Package demand models broadband demand: individual serviceable
// locations (the FCC Broadband Data Collection unit), their
// classification against the federal "reliable broadband" benchmark,
// aggregation into service-grid cells, and the per-cell density
// distribution the capacity model is driven by.
package demand

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/memo"
	"leodivide/internal/spectrum"
	"leodivide/internal/stats"
)

// Location is one broadband-serviceable location with the best service
// any ISP reports there.
type Location struct {
	// ID is a stable identifier, unique within a dataset.
	ID uint64
	// Pos is the location's coordinate.
	Pos geo.LatLng
	// CountyFIPS is the 5-digit county code.
	CountyFIPS string
	// StateAbbr is the USPS state abbreviation.
	StateAbbr string
	// MaxDownMbps and MaxUpMbps are the fastest reported service.
	MaxDownMbps, MaxUpMbps float64
	// Technology is the reported access technology ("none", "dsl",
	// "fixed-wireless", "cable", "fiber", "satellite").
	Technology string
}

// ReliablyServed reports whether down/up meets the FCC reliable
// broadband benchmark (100/20 Mbps).
func ReliablyServed(downMbps, upMbps float64) bool {
	return downMbps >= spectrum.FCCDownlinkMbps && upMbps >= spectrum.FCCUplinkMbps
}

// Underserved reports whether the location lacks reliable broadband.
func (l Location) Underserved() bool {
	return !ReliablyServed(l.MaxDownMbps, l.MaxUpMbps)
}

// Cell is one service-grid cell with its aggregated demand.
type Cell struct {
	// ID is the grid cell.
	ID hexgrid.CellID
	// Locations is the number of un(der)served locations in the cell.
	Locations int
	// CountyFIPS is the county owning the cell's center (the paper
	// assigns incomes at county granularity).
	CountyFIPS string
	// Center is the cell's center coordinate.
	Center geo.LatLng
}

// DemandGbps returns the cell's sold downlink demand at the FCC
// benchmark.
func (c Cell) DemandGbps() float64 {
	return float64(c.Locations) * spectrum.FCCDownlinkMbps / 1000
}

// Aggregate groups un(der)served locations into cells at the given
// resolution. Served locations are skipped. County attribution uses the
// plurality county among the cell's locations.
func Aggregate(locs []Location, res hexgrid.Resolution) ([]Cell, error) {
	if !res.Valid() {
		return nil, fmt.Errorf("demand: invalid resolution %d", res)
	}
	type agg struct {
		count    int
		counties map[string]int
	}
	byCell := make(map[hexgrid.CellID]*agg)
	for _, l := range locs {
		if !l.Underserved() {
			continue
		}
		id := hexgrid.LatLngToCell(l.Pos, res)
		a := byCell[id]
		if a == nil {
			a = &agg{counties: make(map[string]int)}
			byCell[id] = a
		}
		a.count++
		a.counties[l.CountyFIPS]++
	}
	out := make([]Cell, 0, len(byCell))
	for id, a := range byCell {
		county, best := "", -1
		for f, n := range a.counties {
			if n > best || (n == best && f < county) {
				county, best = f, n
			}
		}
		out = append(out, Cell{ID: id, Locations: a.count, CountyFIPS: county, Center: id.LatLng()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Distribution wraps a cell set with the order statistics the model
// queries repeatedly. Construct with NewDistribution.
//
// Alongside the cell slice it keeps columnar projections of the hot
// per-cell fields (location counts, center latitudes) so the capacity
// model's inner loops scan dense arrays instead of striding across
// Cell structs, plus a per-dataset stage memo for derived results that
// are invariant across sweep points (see Stages).
type Distribution struct {
	cells  []Cell // descending by Locations
	cdf    *stats.CDF
	total  int
	suffix []int // suffix[i] = sum of Locations of cells[0..i]

	locs   []int32   // column of cells[i].Locations
	lats   []float64 // column of cells[i].Center.Lat
	stages *memo.Memo[any]
}

// NewDistribution indexes the cells. Cells with zero locations are
// dropped (they impose coverage but no demand).
func NewDistribution(cells []Cell) (*Distribution, error) {
	// The kept rows, by input index, and their IDs.
	rows := make([]int32, 0, len(cells))
	ids := make([]hexgrid.CellID, 0, len(cells))
	for i, c := range cells {
		if c.Locations < 0 {
			return nil, fmt.Errorf("demand: cell %v has negative locations", c.ID)
		}
		if c.Locations > math.MaxInt32 {
			return nil, fmt.Errorf("demand: cell %v has %d locations, beyond the int32 column range", c.ID, c.Locations)
		}
		if c.Locations > 0 {
			rows = append(rows, int32(i))
			ids = append(ids, c.ID)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("demand: no cells with demand")
	}
	// Rank the rows by (ID, input index); generated cells arrive in ID
	// order and are ranked already.
	if !slices.IsSorted(ids) {
		ranked := make([]int32, len(rows))
		for r, k := range IDOrder(ids) {
			ranked[r] = rows[k]
		}
		rows = ranked
	}
	// Order by descending locations, then rank: each key packs the
	// location count's complement above the rank, so one integer sort of
	// a pointer-free column orders the rows, which are then gathered once
	// into a slice of their final size.
	keys := make([]uint64, len(rows))
	for r, i := range rows {
		keys[r] = uint64(math.MaxInt32-cells[i].Locations)<<32 | uint64(r)
	}
	stats.SortUint64(keys)
	kept := make([]Cell, len(keys))
	for k, key := range keys {
		kept[k] = cells[rows[uint32(key)]]
	}
	samples := make([]float64, len(kept))
	suffix := make([]int, len(kept))
	locs := make([]int32, len(kept))
	lats := make([]float64, len(kept))
	total := 0
	for i, c := range kept {
		// Ascending, so the CDF's own sort finds its input sorted.
		samples[len(kept)-1-i] = float64(c.Locations)
		total += c.Locations
		suffix[i] = total
		locs[i] = int32(c.Locations)
		lats[i] = c.Center.Lat
	}
	cdf, err := stats.NewCDF(samples)
	if err != nil {
		return nil, err
	}
	return &Distribution{
		cells: kept, cdf: cdf, total: total, suffix: suffix,
		locs: locs, lats: lats,
		stages: memo.New(memo.Options[any]{}),
	}, nil
}

// IDOrder returns the input indices of ids in ascending ID order, equal
// IDs in input order. Sorting this compact, pointer-free column and
// gathering rows once is much cheaper than sorting Cell structs, whose
// every swap moves a string header and pays GC write barriers.
func IDOrder(ids []hexgrid.CellID) []int32 {
	type idKey struct {
		id  hexgrid.CellID
		idx int32
	}
	keys := make([]idKey, len(ids))
	for i, id := range ids {
		keys[i] = idKey{id: id, idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b idKey) int {
		if a.id != b.id {
			return cmp.Compare(a.id, b.id)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = k.idx
	}
	return order
}

// NumCells returns the number of cells with demand.
func (d *Distribution) NumCells() int { return len(d.cells) }

// TotalLocations returns the total un(der)served locations.
func (d *Distribution) TotalLocations() int { return d.total }

// Cells returns the cells in descending demand order. The returned
// slice is shared; callers must not modify it.
func (d *Distribution) Cells() []Cell { return d.cells }

// Peak returns the densest cell.
func (d *Distribution) Peak() Cell { return d.cells[0] }

// CDF returns the per-cell location-count CDF.
func (d *Distribution) CDF() *stats.CDF { return d.cdf }

// Locs returns the per-cell location counts as a dense column, aligned
// with Cells() (descending). Shared storage; callers must not modify.
func (d *Distribution) Locs() []int32 { return d.locs }

// Lats returns the per-cell center latitudes as a dense column, aligned
// with Cells(). Shared storage; callers must not modify.
func (d *Distribution) Lats() []float64 { return d.lats }

// Stages returns the distribution's compute-stage memo. Derived values
// that depend only on this dataset (plus model knobs encoded in the
// key) are cached here and shared across sweep points and concurrent
// experiments. Nil only for a zero-value Distribution; a nil memo just
// runs every fill.
//
// The invalidation contract is structural: the memo hangs off the
// dataset it describes, so stage values live exactly as long as the
// dataset, and a new dataset starts with an empty memo. Keys therefore
// never encode dataset identity, only the stage name and the model
// knobs the stage's value depends on. Knobs that do not change a
// stage's value (parallelism above all) stay out of its key, mirroring
// the canonical-scenario-key rule. Errors are never cached, and values
// evict LRU past memo.DefaultEntries.
func (d *Distribution) Stages() *memo.Memo[any] { return d.stages }

// Quantile returns the per-cell location count at quantile q.
func (d *Distribution) Quantile(q float64) int { return int(d.cdf.Quantile(q)) }

// CellsAbove returns the number of cells with more than t locations.
func (d *Distribution) CellsAbove(t int) int {
	// Integer binary search on the descending locs column; it counts
	// the same cells as a float comparison over the CDF's samples
	// because location counts are integers far below 2^53 and convert
	// to float64 exactly.
	return sort.Search(len(d.locs), func(i int) bool { return int(d.locs[i]) <= t })
}

// LocationsInCellsAbove returns the total locations living in cells with
// more than t locations (the paper's "locations subject to high
// oversubscription").
func (d *Distribution) LocationsInCellsAbove(t int) int {
	n := d.CellsAbove(t)
	if n == 0 {
		return 0
	}
	return d.suffix[n-1]
}

// ExcessAbove returns the total locations beyond a per-cell cap of t:
// Σ max(L−t, 0). These are the locations that cannot be served when
// every cell is limited to t.
func (d *Distribution) ExcessAbove(t int) int {
	n := d.CellsAbove(t)
	if n == 0 {
		return 0
	}
	return d.suffix[n-1] - n*t
}

// ServedFractionWithCap returns the fraction of all locations servable
// when every cell is capped at t locations.
func (d *Distribution) ServedFractionWithCap(t int) float64 {
	return 1 - float64(d.ExcessAbove(t))/float64(d.total)
}

// FractionOfCellsAtMost returns the fraction of demand cells with at
// most t locations.
func (d *Distribution) FractionOfCellsAtMost(t int) float64 {
	// = cdf.P(float64(t)): the cells at most t are the complement of
	// CellsAbove over the same integer column, and the division order
	// is the same.
	return float64(len(d.locs)-d.CellsAbove(t)) / float64(len(d.locs))
}

// Summary returns headline statistics of the per-cell distribution.
func (d *Distribution) Summary() (stats.Summary, error) {
	// The CDF already holds the sorted sample column; summarizing it is
	// value-identical to re-collecting and re-sorting the samples.
	return stats.SummarizeCDF(d.cdf)
}

// CountyWeights returns total locations per county FIPS, for income
// weighting.
func (d *Distribution) CountyWeights() map[string]int {
	out := make(map[string]int)
	for _, c := range d.cells {
		out[c.CountyFIPS] += c.Locations
	}
	return out
}

// Scale returns a copy of cells with every location count multiplied by
// factor (rounded, minimum 1). It models the FCC map's known
// undercounting of un(der)served locations — ISPs self-report coverage
// and are known to overstate it — so sensitivity analyses can ask how
// the capacity findings move if the true demand is, say, 20% higher
// than the map shows.
func Scale(cells []Cell, factor float64) ([]Cell, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("demand: scale factor must be positive, got %v", factor)
	}
	out := make([]Cell, len(cells))
	for i, c := range cells {
		n := int(math.Round(float64(c.Locations) * factor))
		if n < 1 && c.Locations > 0 {
			n = 1
		}
		out[i] = c
		out[i].Locations = n
	}
	return out, nil
}
