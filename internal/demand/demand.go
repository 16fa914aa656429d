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
	"math/bits"
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
func (c Cell) DemandGbps() float64 { return DemandGbps(c.Locations) }

// DemandGbps returns the sold downlink demand of a cell holding the
// given number of locations at the FCC benchmark.
func DemandGbps(locations int) float64 {
	return float64(locations) * spectrum.FCCDownlinkMbps / 1000
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

// Cells is a set of demand cells as pointer-free columns in ascending
// ID order: each cell's ID, location count (at least one), area and
// center. The area is an index into the set's table of area codes (the
// US county FIPS codes, a synthetic region's district codes), so a
// cell carries no string. No method writes a Cells value, so its
// copies share the columns safely; the methods take a pointer only so
// that a kernel calling them per cell does not copy the five slice
// headers each time. Generators, which emit their cells in ID order,
// fill one through a CellsBuilder; NewCells takes any []Cell.
type Cells struct {
	ids     []hexgrid.CellID
	locs    []int32
	areas   []uint16
	centers []geo.LatLng
	codes   []string // area codes, indexed by areas
}

// Len returns the number of cells.
func (c *Cells) Len() int { return len(c.ids) }

// At returns cell i in ID order, for i in [0, Len()), with its
// CountyFIPS read from the area code table.
func (c *Cells) At(i int) Cell {
	return Cell{ID: c.ids[i], Locations: int(c.locs[i]), CountyFIPS: c.codes[c.areas[i]], Center: c.centers[i]}
}

// Locations returns cell i's location count: At(i).Locations read
// from its column alone, for the kernels that scan every cell.
func (c *Cells) Locations(i int) int { return int(c.locs[i]) }

// Center returns cell i's center: At(i).Center read from its column
// alone.
func (c *Cells) Center(i int) geo.LatLng { return c.centers[i] }

// CellsBuilder fills a Cells value cell by cell, in ascending ID
// order, straight into its columns. Construct with NewCellsBuilder.
type CellsBuilder struct {
	c   Cells
	err error
}

// NewCellsBuilder returns a builder for n cells whose areas index
// codes. The cells it builds keep codes, which must not be modified
// afterwards.
func NewCellsBuilder(n int, codes []string) *CellsBuilder {
	return &CellsBuilder{c: Cells{
		ids:     make([]hexgrid.CellID, 0, n),
		locs:    make([]int32, 0, n),
		areas:   make([]uint16, 0, n),
		centers: make([]geo.LatLng, 0, n),
		codes:   codes,
	}}
}

// Add appends a cell. Cells must come in ascending ID order (equal IDs
// allowed), each with between 1 and math.MaxInt32 locations and an area
// inside the code table; the first that does not makes Cells fail.
func (b *CellsBuilder) Add(id hexgrid.CellID, locations int, area uint16, center geo.LatLng) {
	if b.err == nil {
		switch n := len(b.c.ids); {
		case locations < 1:
			b.err = fmt.Errorf("demand: cell %v has %d locations, want at least 1", id, locations)
		case locations > math.MaxInt32:
			b.err = fmt.Errorf("demand: cell %v has %d locations, beyond the int32 column range", id, locations)
		case int(area) >= len(b.c.codes):
			b.err = fmt.Errorf("demand: cell %v has area %d of %d", id, area, len(b.c.codes))
		case n > 0 && b.c.ids[n-1] > id:
			b.err = fmt.Errorf("demand: cell %v added after %v", id, b.c.ids[n-1])
		}
	}
	b.c.ids = append(b.c.ids, id)
	b.c.locs = append(b.c.locs, int32(locations))
	b.c.areas = append(b.c.areas, area)
	b.c.centers = append(b.c.centers, center)
}

// Cells returns the cells added, or the first misordered or
// out-of-range one as an error. The builder must not be used after.
func (b *CellsBuilder) Cells() (Cells, error) {
	if b.err != nil {
		return Cells{}, b.err
	}
	return b.c, nil
}

// NewCells builds the columns of any cell set. Cells with zero
// locations are dropped (they impose coverage but no demand); the rest
// are ordered by ID, equal IDs in input order, and their CountyFIPS
// codes become a sorted area code table.
func NewCells(cells []Cell) (Cells, error) {
	ids := make([]hexgrid.CellID, 0, len(cells))
	rows := make([]int32, 0, len(cells))
	var codes []string
	for i, c := range cells {
		if c.Locations < 0 {
			return Cells{}, fmt.Errorf("demand: cell %v has negative locations", c.ID)
		}
		if c.Locations > 0 {
			ids = append(ids, c.ID)
			rows = append(rows, int32(i))
			codes = append(codes, c.CountyFIPS)
		}
	}
	slices.Sort(codes)
	codes = slices.Compact(codes)
	if len(codes) > math.MaxUint16+1 {
		return Cells{}, fmt.Errorf("demand: %d area codes, beyond the uint16 area range", len(codes))
	}
	b := NewCellsBuilder(len(rows), codes)
	for _, k := range IDOrder(ids) {
		c := &cells[rows[k]]
		area, _ := slices.BinarySearch(codes, c.CountyFIPS)
		b.Add(c.ID, c.Locations, uint16(area), c.Center)
	}
	return b.Cells()
}

// Distribution wraps a cell set with the order statistics the model
// queries repeatedly. Construct with NewDistribution.
//
// It indexes the cells instead of copying them: order maps each rank
// (descending by location count) to a cell of the set, and Cell(rank)
// reads through it. Beside the index it keeps columnar projections of
// the hot per-cell fields (location counts, center latitudes) in rank
// order, so the capacity model's inner loops scan dense arrays, plus a
// per-dataset stage memo for derived results that are invariant across
// sweep points (see Stages).
type Distribution struct {
	cells  Cells
	order  []int32 // order[rank] = cell index; descending by Locations
	cdf    *stats.CDF
	total  int
	suffix []int // suffix[i] = sum of Locations of ranks 0..i

	locs   []int32   // column of Cell(i).Locations
	lats   []float64 // column of Cell(i).Center.Lat
	stages *memo.Memo[any]
}

// NewDistribution indexes the cells. An empty set is an error: there
// is no demand to distribute.
func NewDistribution(cells Cells) (*Distribution, error) {
	n := cells.Len()
	if n == 0 {
		return nil, fmt.Errorf("demand: no cells with demand")
	}
	// Order by descending locations, then ID order: each key packs the
	// location count's complement above the cell index's rankBits bits,
	// so one integer sort of a pointer-free column orders the cells.
	// The cells are then indexed in that order, never copied, and the
	// columns are filled in the same loop.
	rankBits := bits.Len(uint(n))
	keys := make([]uint64, n)
	for i, l := range cells.locs {
		keys[i] = uint64(math.MaxInt32-l)<<rankBits | uint64(i)
	}
	stats.SortUint64(keys)
	order := make([]int32, n)
	samples := make([]float64, n)
	suffix := make([]int, n)
	locs := make([]int32, n)
	lats := make([]float64, n)
	total := 0
	for k, key := range keys {
		i := int32(key & (1<<rankBits - 1))
		l := cells.locs[i]
		order[k] = i
		// Ascending, so the CDF keeps the column as it is.
		samples[n-1-k] = float64(l)
		total += int(l)
		suffix[k] = total
		locs[k] = l
		lats[k] = cells.centers[i].Lat
	}
	cdf, err := stats.NewCDF(samples)
	if err != nil {
		return nil, err
	}
	return &Distribution{
		cells: cells, order: order, cdf: cdf, total: total, suffix: suffix,
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
func (d *Distribution) NumCells() int { return len(d.order) }

// TotalLocations returns the total un(der)served locations.
func (d *Distribution) TotalLocations() int { return d.total }

// Cell returns the cell at rank in descending demand order, for rank
// in [0, NumCells()).
func (d *Distribution) Cell(rank int) Cell { return d.cells.At(int(d.order[rank])) }

// Peak returns the densest cell.
func (d *Distribution) Peak() Cell { return d.Cell(0) }

// CDF returns the per-cell location-count CDF.
func (d *Distribution) CDF() *stats.CDF { return d.cdf }

// Locs returns the per-cell location counts as a dense column in rank
// order (descending), so Locs()[i] is Cell(i).Locations. Shared
// storage; callers must not modify.
func (d *Distribution) Locs() []int32 { return d.locs }

// Lats returns the per-cell center latitudes as a dense column in rank
// order. Shared storage; callers must not modify.
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
