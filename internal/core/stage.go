package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"leodivide/internal/beams"
	"leodivide/internal/demand"
	"leodivide/internal/orbit"
)

// This file holds core's compute stages: the spread-invariant pieces of
// the sizing sweeps, memoized per dataset in the Distribution's stage
// memo (see Distribution.Stages). Two facts make the staging sound:
//
//   - The binding scan of sizeWithCap depends on the beam config, the
//     shell inclination, the oversubscription and the per-cell cap —
//     but not on the beamspread factor, which only enters afterwards
//     via ConstellationSize. One scan therefore serves every spread of
//     a Table-2 row, every Figure-3 curve and every fleet row.
//   - The diminishing-returns sweep's per-cap (unserved, beams) profile
//     depends on the beam config and oversubscription only; the spread
//     maps it through a per-band satellite table afterwards.
//
// The calibration inputs (CalibratedEffectiveCells and the constants
// calibrationLatDeg and cellAreaKm2) are deliberately outside both
// stages: they only affect ConstellationSize, which is always evaluated
// fresh. Parallelism never
// keys a stage — results are identical at every worker count.

// scanKey identifies one binding scan. All fields are comparable; the
// struct is usable as a map key with zero-allocation lookups.
type scanKey struct {
	beams   beams.Config
	incDeg  float64
	oversub float64
	capLoc  int
}

// peakScan is the spread-invariant result of the binding scan: the
// maximum per-cell beam requirement and the index (into the
// distribution's descending cell order) of the binding cell — the
// least-dense-latitude cell among those needing maxBeams.
type peakScan struct {
	maxBeams int
	bindIdx  int
}

// profileKey identifies one diminishing-returns profile.
type profileKey struct {
	beams   beams.Config
	oversub float64
}

// profilePoint is one cap value of the diminishing-returns sweep:
// locations unserved at the cap and the binding cell's beam count.
type profilePoint struct {
	unserved int
	beams    int
}

// modelCache is core's single anchor entry in a dataset's stage memo:
// typed maps behind one mutex, so the hot sizing path pays a constant
// string-key lookup for the anchor plus struct-key map lookups — no
// per-call key formatting, no allocations on hit.
type modelCache struct {
	mu       sync.Mutex
	scans    map[scanKey]peakScan
	profiles map[profileKey][]profilePoint
}

// modelCacheEntries bounds each typed map: past this many distinct
// (config, oversub, cap) combinations the map is flushed wholesale.
// Scenario sweeps use a handful of combinations; only an adversarial
// caller cycling knobs ever hits the bound, and recomputing is cheap.
const modelCacheEntries = 256

const modelCacheKey = "core.model-cache"

// newModelCache is package-level so the anchor lookup passes a static
// function value instead of allocating a closure per call.
var newModelCache = func() (any, error) {
	return &modelCache{
		scans:    make(map[scanKey]peakScan),
		profiles: make(map[profileKey][]profilePoint),
	}, nil
}

// modelCacheOf returns the dataset's model cache, creating it on first
// use. With a nil stage memo (zero-value Distribution) every call
// returns a fresh cache: correct, just unmemoized. newModelCache is
// infallible, so the only error Do can surface is a coalesced leader's
// panic — re-panicking is the honest translation of that state.
func modelCacheOf(d *demand.Distribution) *modelCache {
	v, _, err := d.Stages().Do(context.Background(), modelCacheKey, newModelCache)
	if err != nil {
		panic(fmt.Sprintf("core: model-cache stage failed: %v", err))
	}
	return v.(*modelCache)
}

// peakScan returns the memoized binding scan for (oversub, capLoc),
// computing it on first use. Concurrent first uses may compute
// duplicates; the insert is idempotent.
func (m Model) peakScan(d *demand.Distribution, oversub float64, capLoc int) peakScan {
	key := scanKey{beams: m.Beams, incDeg: m.InclinationDeg, oversub: oversub, capLoc: capLoc}
	mc := modelCacheOf(d)
	mc.mu.Lock()
	s, ok := mc.scans[key]
	mc.mu.Unlock()
	if ok {
		return s
	}
	s = m.computePeakScan(d, oversub, capLoc)
	mc.mu.Lock()
	if len(mc.scans) >= modelCacheEntries {
		clear(mc.scans)
	}
	mc.scans[key] = s
	mc.mu.Unlock()
	return s
}

// computePeakScan runs the binding scan over the columnar cell data.
// Cells are sorted descending by location count, so the capped served
// count — and with it the beam requirement — is non-increasing along
// the scan. The cells that can bind (beam count equal to the maximum,
// which the first cell fixes) therefore form a prefix, found by binary
// search; only that prefix needs latitude density evaluation, and the
// shell's sine is taken once for all of it. The min-density selection
// keeps the original first-wins strict-< order, so the result is
// identical to the full scan.
func (m Model) computePeakScan(d *demand.Distribution, oversub float64, capLoc int) peakScan {
	locs := d.Locs()
	lats := d.Lats()
	served := int(locs[0])
	if served > capLoc {
		served = capLoc
	}
	b0, _ := m.Beams.BeamsForCell(served, oversub)
	end := sort.Search(len(locs), func(i int) bool {
		s := int(locs[i])
		if s > capLoc {
			s = capLoc
		}
		b, _ := m.Beams.BeamsForCell(s, oversub)
		return b < b0
	})
	si := orbit.InclinationSine(m.InclinationDeg)
	bestF := math.Inf(1)
	bestIdx := 0
	for i := 0; i < end; i++ {
		f := orbit.DensityFactorSin(si, lats[i])
		if f < bestF {
			bestF = f
			bestIdx = i
		}
	}
	return peakScan{maxBeams: b0, bindIdx: bestIdx}
}

// returnsProfile returns the memoized diminishing-returns profile for
// oversub: for each cap t in [perBeam, hardCap], the unserved-location
// count and the binding beam requirement.
//
// The caps ascend and the location column descends, so one serial walk
// yields every point: it starts from the cells above perBeam and their
// location sum, and drops the trailing cells as the cap reaches them.
// The unserved count sum − n·t is then the same integer ExcessAbove(t)
// computes by binary search.
func (m Model) returnsProfile(d *demand.Distribution, oversub float64) []profilePoint {
	key := profileKey{beams: m.Beams, oversub: oversub}
	mc := modelCacheOf(d)
	mc.mu.Lock()
	prof, ok := mc.profiles[key]
	mc.mu.Unlock()
	if ok {
		return prof
	}
	hardCap := m.Beams.MaxServableLocations(oversub)
	perBeam := m.Beams.LocationsPerBeam(oversub)
	locs := d.Locs()
	n := d.CellsAbove(perBeam)
	sum := d.LocationsInCellsAbove(perBeam)
	prof = make([]profilePoint, hardCap-perBeam+1)
	for i := range prof {
		t := perBeam + i
		for n > 0 && int(locs[n-1]) <= t {
			n--
			sum -= int(locs[n])
		}
		b, _ := m.Beams.BeamsForCell(t, oversub)
		prof[i] = profilePoint{unserved: sum - n*t, beams: b}
	}
	mc.mu.Lock()
	if len(mc.profiles) >= modelCacheEntries {
		clear(mc.profiles)
	}
	mc.profiles[key] = prof
	mc.mu.Unlock()
	return prof
}
