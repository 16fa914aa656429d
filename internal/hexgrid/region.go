package hexgrid

import (
	"sort"

	"leodivide/internal/geo"
)

// Boundary returns the cell's polygon vertices in counterclockwise
// order: the circumcenters of the Voronoi region around the cell's
// lattice vertex, approximated as the midpoints between the cell
// center and the midpoints of adjacent neighbor pairs. Hexagonal cells
// return 6 vertices, pentagon cells 5.
func (c CellID) Boundary() []geo.LatLng {
	center := c.LatLng()
	cv := center.Vector()
	nbs := c.Neighbors()
	if len(nbs) < 3 {
		return nil
	}
	// Order neighbors by bearing around the center.
	type nb struct {
		v       geo.Vec3
		bearing float64
	}
	ordered := make([]nb, 0, len(nbs))
	for _, id := range nbs {
		p := id.LatLng()
		ordered = append(ordered, nb{v: p.Vector(), bearing: geo.InitialBearing(center, p)})
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].bearing < ordered[b].bearing })
	// The Voronoi vertex between two adjacent neighbors is equidistant
	// from the center and both neighbors; for a near-regular lattice it
	// is well approximated by the normalized centroid of the triangle
	// (center, n_i, n_{i+1}).
	out := make([]geo.LatLng, 0, len(ordered))
	for i := range ordered {
		j := (i + 1) % len(ordered)
		vertex := cv.Add(ordered[i].v).Add(ordered[j].v).Unit()
		out = append(out, vertex.LatLng())
	}
	// InitialBearing ascends clockwise from north; reverse for CCW.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
