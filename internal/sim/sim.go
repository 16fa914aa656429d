// Package sim is a time-stepped constellation simulator used to
// cross-check the analytic sizing model: it propagates a Walker shell,
// snapshots satellite positions at each epoch, assigns spot beams to
// demand cells greedily, and measures coverage and served fractions
// empirically. It plays the role Hypatia-class simulators play for the
// paper's analytical claims — an independent, mechanism-level check
// that the density profile and cells-per-satellite accounting hold up.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"leodivide/internal/beams"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/orbit"
	"leodivide/internal/par"
)

// Config parameterizes a simulation run.
type Config struct {
	// Shell is the constellation to propagate.
	Shell orbit.Walker
	// MinElevationDeg is the user-terminal elevation mask.
	MinElevationDeg float64
	// Epochs is how many snapshots to evaluate.
	Epochs int
	// StepSeconds is the time between snapshots.
	StepSeconds float64
	// Beams is the per-satellite beam budget.
	Beams beams.Config
	// Spread is the beamspread factor in force.
	Spread float64
	// Oversub is the per-cell oversubscription cap.
	Oversub float64
	// Parallelism bounds the worker count for the per-epoch geometry
	// (satellite propagation, per-cell visibility). 0 means one worker
	// per CPU; 1 is the serial path. Results are identical at every
	// setting: each satellite/cell lands in an index-ordered slot and
	// the greedy beam allocator stays serial.
	Parallelism int
}

// DefaultConfig returns a one-orbit sweep of Starlink's principal shell
// with a 25° elevation mask.
func DefaultConfig() Config {
	return Config{
		Shell:           orbit.StarlinkShell1(),
		MinElevationDeg: 25,
		Epochs:          16,
		StepSeconds:     360,
		Beams:           beams.DefaultConfig(),
		Spread:          10,
		Oversub:         20,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if err := c.Shell.Validate(); err != nil {
		return err
	}
	if err := c.Beams.Validate(); err != nil {
		return err
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("sim: epochs must be positive, got %d", c.Epochs)
	}
	if c.StepSeconds <= 0 {
		return fmt.Errorf("sim: step must be positive, got %v", c.StepSeconds)
	}
	if c.MinElevationDeg < 0 || c.MinElevationDeg >= 90 {
		return fmt.Errorf("sim: elevation mask %v out of range", c.MinElevationDeg)
	}
	return nil
}

// Result aggregates per-epoch measurements.
type Result struct {
	// Epochs is the number of snapshots evaluated.
	Epochs int
	// MeanVisibleSats is the mean number of satellites above the mask
	// per demand cell.
	MeanVisibleSats float64
	// MinCoveredFraction and MeanCoveredFraction report the fraction of
	// demand cells with at least one visible satellite, at the worst
	// epoch and on average.
	MinCoveredFraction, MeanCoveredFraction float64
	// MinServedFraction and MeanServedFraction report the fraction of
	// demand whose beam requirement was satisfied by the greedy
	// allocator.
	MinServedFraction, MeanServedFraction float64
}

// Run propagates the shell and evaluates coverage and beam allocation
// over the demand cells at each epoch.
func Run(ctx context.Context, cfg Config, cells []demand.Cell) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(cells) == 0 {
		return Result{}, fmt.Errorf("sim: no demand cells")
	}
	orbits, err := cfg.Shell.Orbits()
	if err != nil {
		return Result{}, err
	}

	res := Result{Epochs: cfg.Epochs}
	res.MinCoveredFraction = 1
	res.MinServedFraction = 1
	sumVisible, sumCovered, sumServed := 0.0, 0.0, 0.0

	for e := 0; e < cfg.Epochs; e++ {
		t := cfg.StepSeconds * float64(e)
		snap, err := snapshotWithMask(ctx, orbits, t, cfg.MinElevationDeg, cfg.Parallelism)
		if err != nil {
			return Result{}, err
		}
		visible, err := visibleSats(ctx, snap, cells, cfg.MinElevationDeg, cfg.Parallelism)
		if err != nil {
			return Result{}, err
		}
		covered := 0
		totalVisible := 0
		for _, v := range visible {
			if len(v) > 0 {
				covered++
			}
			totalVisible += len(v)
		}
		assignment := allocate(cfg, cells, visible, len(snap))
		served := 0
		for _, a := range assignment {
			if a >= 0 {
				served++
			}
		}
		cf := float64(covered) / float64(len(cells))
		sf := float64(served) / float64(len(cells))
		sumCovered += cf
		sumServed += sf
		sumVisible += float64(totalVisible) / float64(len(cells))
		if cf < res.MinCoveredFraction {
			res.MinCoveredFraction = cf
		}
		if sf < res.MinServedFraction {
			res.MinServedFraction = sf
		}
	}
	res.MeanVisibleSats = sumVisible / float64(cfg.Epochs)
	res.MeanCoveredFraction = sumCovered / float64(cfg.Epochs)
	res.MeanServedFraction = sumServed / float64(cfg.Epochs)
	return res, nil
}

// satPos is one satellite's snapshot position.
type satPos struct {
	ecef     geo.Vec3
	sub      geo.LatLng
	covAngle float64 // Earth-central coverage half-angle, radians
}

func snapshotWithMask(ctx context.Context, orbits []orbit.CircularOrbit, t, minElev float64, workers int) ([]satPos, error) {
	return par.Map(ctx, workers, len(orbits), func(i int) (satPos, error) {
		o := orbits[i]
		ecef := orbit.ECIToECEF(o.PositionECI(t), t)
		return satPos{
			ecef:     ecef,
			sub:      ecef.LatLng(),
			covAngle: coverageAngleFor(o.AltitudeKm, minElev),
		}, nil
	})
}

// visibleSats returns, per demand cell, the indices of satellites above
// the elevation mask, using a latitude/longitude bucket index to avoid
// the all-pairs scan. The bucket index is built once serially; the
// per-cell scans fan out over workers, each writing its own slot.
func visibleSats(ctx context.Context, sats []satPos, cells []demand.Cell, minElev float64, workers int) ([][]int, error) {
	// The bucket scan reach must cover the widest footprint present.
	covAngle := 0.0
	for _, s := range sats {
		if s.covAngle > covAngle {
			covAngle = s.covAngle
		}
	}
	const bucketDeg = 6.0
	latBuckets := int(math.Ceil(180 / bucketDeg))
	lngBuckets := int(math.Ceil(360 / bucketDeg))
	index := make(map[int][]int)
	key := func(lat, lng float64) int {
		bi := int((lat + 90) / bucketDeg)
		bj := int(math.Mod(lng+360, 360) / bucketDeg)
		if bi >= latBuckets {
			bi = latBuckets - 1
		}
		if bj >= lngBuckets {
			bj = lngBuckets - 1
		}
		return bi*lngBuckets + bj
	}
	for i, s := range sats {
		k := key(s.sub.Lat, s.sub.Lng)
		index[k] = append(index[k], i)
	}
	reachDeg := geo.Degrees(covAngle) + bucketDeg
	steps := int(math.Ceil(reachDeg / bucketDeg))
	out := make([][]int, len(cells))
	err := par.ForEach(ctx, workers, len(cells), func(ci int) error {
		c := cells[ci]
		var vis []int
		baseLat := c.Center.Lat
		for di := -steps; di <= steps; di++ {
			lat := baseLat + float64(di)*bucketDeg
			if lat < -90 || lat > 90 {
				continue
			}
			// Longitude buckets shrink with latitude; widen the scan.
			lngStep := bucketDeg
			cosLat := math.Cos(geo.Radians(lat))
			span := steps
			if cosLat > 0.05 {
				span = int(math.Ceil(reachDeg / (bucketDeg * cosLat)))
			} else {
				span = lngBuckets / 2
			}
			for dj := -span; dj <= span; dj++ {
				lng := c.Center.Lng + float64(dj)*lngStep
				for _, si := range index[key(lat, lng)] {
					if geo.AngularDistance(c.Center, sats[si].sub) <= sats[si].covAngle {
						if orbit.ElevationDeg(sats[si].ecef, c.Center) >= minElev {
							vis = append(vis, si)
						}
					}
				}
			}
		}
		sort.Ints(vis)
		vis = dedupe(vis)
		out[ci] = vis
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func dedupe(a []int) []int {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// coverageAngleFor returns the Earth-central coverage half-angle of a
// satellite at the given altitude and elevation mask, in radians.
func coverageAngleFor(altitudeKm, minElevationDeg float64) float64 {
	return orbit.CoverageRadiusKm(altitudeKm, minElevationDeg) / geo.EarthRadiusKm
}

// sortByDemandDesc orders cell indices by descending location count.
func sortByDemandDesc(order []int, cells []demand.Cell) {
	sort.Slice(order, func(a, b int) bool {
		return cells[order[a]].Locations > cells[order[b]].Locations
	})
}

// allocate assigns beams greedily, densest cell first, each to
// its visible satellite with the most free cell-slots. It returns, for
// each cell, the serving satellite index (-1 when unmet).
func allocate(cfg Config, cells []demand.Cell, visible [][]int, nsats int) []int {
	slots := make([]float64, nsats)
	perSat := float64(cfg.Beams.BeamsPerSatellite) * cfg.Spread
	for i := range slots {
		slots[i] = perSat
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sortByDemandDesc(order, cells)
	assignment := make([]int, len(cells))
	for i := range assignment {
		assignment[i] = -1
	}
	for _, ci := range order {
		b, ok := cfg.Beams.BeamsForCell(cells[ci].Locations, cfg.Oversub)
		need := float64(b) * cfg.Spread
		if b == 1 {
			need = 1
		}
		if !ok {
			need = float64(cfg.Beams.MaxBeamsPerCell) * cfg.Spread
		}
		best, bestFree := -1, 0.0
		for _, si := range visible[ci] {
			if slots[si] > bestFree {
				best, bestFree = si, slots[si]
			}
		}
		if best >= 0 && bestFree >= need {
			slots[best] -= need
			if ok {
				assignment[ci] = best
			}
		}
	}
	return assignment
}
