// Package hexgrid implements a discrete global grid over a subdivided
// icosahedron. It stands in for the Uber H3 geospatial index that prior
// work identified as the basis of Starlink's service cells: cells are
// the Voronoi regions of a class-I geodesic lattice (hexagonal almost
// everywhere, with twelve pentagons at the icosahedron vertices), and
// the resolution table is chosen so average cell areas match H3's
// (resolution 5 ≈ 253 km², the cell scale at which Starlink plans
// service).
//
// The package provides exactly what a LEO capacity model needs from a
// geospatial index: stable 64-bit cell identifiers, point-to-cell
// assignment, cell centers, approximate equal areas, global cell counts,
// neighbor lookup and k-ring discs.
//
// Cells are identified by the lattice vertex at their center, written in
// barycentric coordinates (i, j, n-i-j) on one of the 20 icosahedron
// faces. Vertices shared between faces are canonicalized to the
// lexicographically smallest (face, i, j) representation, so every cell
// has exactly one valid CellID.
package hexgrid

import (
	"fmt"
	"math"
	"sort"

	"leodivide/internal/geo"
)

// Resolution selects the grid density. Higher resolutions have roughly
// 7x the cells of the previous one, mirroring H3's aperture.
type Resolution int

// Resolution bounds. Resolution 5 matches the H3 resolution-5 cell area
// used by Starlink's service cells.
const (
	MinResolution Resolution = 0
	MaxResolution Resolution = 6
)

// subdivisions[r] is the class-I subdivision frequency n at resolution r.
// Total cells = 10n²+2; values are chosen so the average cell area
// tracks H3's per-resolution areas.
var subdivisions = [MaxResolution + 1]int{3, 9, 24, 64, 170, 449, 1188}

// Valid reports whether r is a supported resolution.
func (r Resolution) Valid() bool { return r >= MinResolution && r <= MaxResolution }

// Subdivisions returns the geodesic subdivision frequency at r.
func (r Resolution) Subdivisions() int {
	if !r.Valid() {
		return 0
	}
	return subdivisions[r]
}

// NumCells returns the total number of cells covering the globe at r.
func (r Resolution) NumCells() int {
	n := r.Subdivisions()
	return 10*n*n + 2
}

// AvgCellAreaKm2 returns the mean cell area at r in km².
func (r Resolution) AvgCellAreaKm2() float64 {
	return geo.EarthAreaKm2 / float64(r.NumCells())
}

// CellID identifies one grid cell. The zero value is invalid.
//
// Layout: bits 60-57 resolution+1, bits 56-52 face, bits 51-26 i,
// bits 25-0 j. The +1 on resolution keeps the zero value invalid.
type CellID uint64

const (
	resShift  = 57
	faceShift = 52
	iShift    = 26
	coordMask = (1 << 26) - 1
)

func makeCell(r Resolution, face, i, j int) CellID {
	return CellID(uint64(r+1)<<resShift | uint64(face)<<faceShift |
		uint64(i)<<iShift | uint64(j))
}

// Resolution returns the cell's resolution.
func (c CellID) Resolution() Resolution { return Resolution(c>>resShift) - 1 }

// Face returns the icosahedron face (0-19) owning the cell's canonical
// representation.
func (c CellID) Face() int { return int(c>>faceShift) & 0x1f }

// Coords returns the canonical barycentric lattice coordinates (i, j).
func (c CellID) Coords() (i, j int) {
	return int(c>>iShift) & coordMask, int(c) & coordMask
}

// String renders the cell as res/face/i/j.
func (c CellID) String() string {
	i, j := c.Coords()
	return fmt.Sprintf("cell(r%d f%d %d,%d)", c.Resolution(), c.Face(), i, j)
}

// icosahedron geometry, built once at init.
var (
	icoVerts   [12]geo.Vec3
	icoFaces   [20][3]int // vertex indices, CCW from outside
	faceCorner [20][3]geo.Vec3
	faceCenter [20]geo.Vec3
	faceInv    [20][9]float64 // row-major inverse of [A B C] column matrix
	edgeAngle  float64        // central angle of an icosahedron edge
	faceRadius float64        // central angle from a face center to its corners
)

func init() {
	buildIcosahedron()
}

func buildIcosahedron() {
	phi := (1 + math.Sqrt(5)) / 2
	raw := [][3]float64{
		{-1, phi, 0}, {1, phi, 0}, {-1, -phi, 0}, {1, -phi, 0},
		{0, -1, phi}, {0, 1, phi}, {0, -1, -phi}, {0, 1, -phi},
		{phi, 0, -1}, {phi, 0, 1}, {-phi, 0, -1}, {-phi, 0, 1},
	}
	for i, v := range raw {
		icoVerts[i] = geo.Vec3{X: v[0], Y: v[1], Z: v[2]}.Unit()
	}
	// Find all faces: vertex triples at mutual edge distance.
	edge := icoVerts[0].AngleTo(icoVerts[1]) // shortest vertex spacing
	edgeAngle = edge
	var faces [][3]int
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			if math.Abs(icoVerts[a].AngleTo(icoVerts[b])-edge) > 1e-9 {
				continue
			}
			for c := b + 1; c < 12; c++ {
				if math.Abs(icoVerts[a].AngleTo(icoVerts[c])-edge) > 1e-9 ||
					math.Abs(icoVerts[b].AngleTo(icoVerts[c])-edge) > 1e-9 {
					continue
				}
				faces = append(faces, [3]int{a, b, c})
			}
		}
	}
	if len(faces) != 20 {
		panic(fmt.Sprintf("hexgrid: icosahedron construction found %d faces", len(faces)))
	}
	sort.Slice(faces, func(x, y int) bool {
		fx, fy := faces[x], faces[y]
		for k := 0; k < 3; k++ {
			if fx[k] != fy[k] {
				return fx[k] < fy[k]
			}
		}
		return false
	})
	for f, tri := range faces {
		a, b, c := icoVerts[tri[0]], icoVerts[tri[1]], icoVerts[tri[2]]
		// Orient CCW viewed from outside: normal aligned with centroid.
		if b.Sub(a).Cross(c.Sub(a)).Dot(a.Add(b).Add(c)) < 0 {
			tri[1], tri[2] = tri[2], tri[1]
			b, c = c, b
		}
		icoFaces[f] = tri
		faceCorner[f] = [3]geo.Vec3{a, b, c}
		faceCenter[f] = a.Add(b).Add(c).Unit()
		faceInv[f] = invert3(a, b, c)
	}
	faceRadius = faceCenter[0].AngleTo(faceCorner[0][0])
}

// invert3 inverts the 3x3 matrix whose columns are a, b, c.
func invert3(a, b, c geo.Vec3) [9]float64 {
	det := a.Dot(b.Cross(c))
	r0 := b.Cross(c).Scale(1 / det)
	r1 := c.Cross(a).Scale(1 / det)
	r2 := a.Cross(b).Scale(1 / det)
	return [9]float64{r0.X, r0.Y, r0.Z, r1.X, r1.Y, r1.Z, r2.X, r2.Y, r2.Z}
}

// barycentric returns the gnomonic barycentric coordinates of unit
// vector v on face f, normalized to sum to 1. Coordinates are all
// nonnegative iff v lies on (the spherical projection of) face f.
func barycentric(f int, v geo.Vec3) (u0, u1, u2 float64) {
	m := &faceInv[f]
	x := m[0]*v.X + m[1]*v.Y + m[2]*v.Z
	y := m[3]*v.X + m[4]*v.Y + m[5]*v.Z
	z := m[6]*v.X + m[7]*v.Y + m[8]*v.Z
	s := x + y + z
	return x / s, y / s, z / s
}

// vertexVec returns the unit vector of lattice vertex (i, j) on face f
// at subdivision n.
func vertexVec(f, n, i, j int) geo.Vec3 {
	k := n - i - j
	c := faceCorner[f]
	return c[0].Scale(float64(i)).
		Add(c[1].Scale(float64(j))).
		Add(c[2].Scale(float64(k))).Unit()
}

// canonicalize returns the canonical CellID for the lattice vertex
// (face, i, j): the lexicographically smallest (face, i, j) among all
// faces on which the vertex lies.
func canonicalize(r Resolution, face, i, j int) CellID {
	n := r.Subdivisions()
	k := n - i - j
	if i > 0 && j > 0 && k > 0 {
		// Interior vertices belong to exactly one face.
		return makeCell(r, face, i, j)
	}
	v := vertexVec(face, n, i, j)
	best := makeCell(r, face, i, j)
	for f := 0; f < face; f++ {
		u0, u1, u2 := barycentric(f, v)
		if u0 < -1e-9 || u1 < -1e-9 || u2 < -1e-9 {
			continue
		}
		fi := u0 * float64(n)
		fj := u1 * float64(n)
		ri, rj := math.Round(fi), math.Round(fj)
		if math.Abs(fi-ri) > 1e-5 || math.Abs(fj-rj) > 1e-5 {
			continue
		}
		ii, jj := int(ri), int(rj)
		if ii < 0 || jj < 0 || ii+jj > n {
			continue
		}
		// Confirm it is genuinely the same vertex.
		if vertexVec(f, n, ii, jj).AngleTo(v) > 1e-9 {
			continue
		}
		cand := makeCell(r, f, ii, jj)
		if cand < best {
			best = cand
		}
		break // faces scanned in ascending order; first hit is smallest
	}
	return best
}

// LatLng returns the cell's center coordinate.
func (c CellID) LatLng() geo.LatLng {
	i, j := c.Coords()
	return vertexVec(c.Face(), c.Resolution().Subdivisions(), i, j).LatLng()
}

// LatLngToCell returns the cell containing p at resolution r: the cell
// whose center vertex is nearest to p on the sphere.
func LatLngToCell(p geo.LatLng, r Resolution) CellID {
	if !r.Valid() {
		return 0
	}
	v := p.Vector()
	n := r.Subdivisions()

	// Rank faces by closeness; candidates can only live on the top few.
	type faceDot struct {
		f   int
		dot float64
	}
	var fd [20]faceDot
	for f := 0; f < 20; f++ {
		fd[f] = faceDot{f, faceCenter[f].Dot(v)}
	}
	sort.Slice(fd[:], func(a, b int) bool { return fd[a].dot > fd[b].dot })

	bestDist := math.Inf(1)
	bestFace, bestI, bestJ := -1, 0, 0
	for rank := 0; rank < 4; rank++ {
		f := fd[rank].f
		u0, u1, _ := barycentric(f, v)
		fi, fj := u0*float64(n), u1*float64(n)
		if fi < -1.5 || fj < -1.5 || fi+fj > float64(n)+1.5 {
			continue // p is far outside this face
		}
		i0, j0 := int(math.Floor(fi)), int(math.Floor(fj))
		for di := 0; di <= 1; di++ {
			for dj := 0; dj <= 1; dj++ {
				i, j := i0+di, j0+dj
				if i < 0 || j < 0 || i+j > n {
					continue
				}
				d := vertexVec(f, n, i, j).AngleTo(v)
				if d < bestDist {
					bestDist, bestFace, bestI, bestJ = d, f, i, j
				}
			}
		}
	}
	if bestFace < 0 {
		// Should not happen: every point lies on some face. Fall back to
		// the closest face's nearest corner.
		f := fd[0].f
		bestFace, bestI, bestJ = f, 0, 0
	}
	return canonicalize(r, bestFace, bestI, bestJ)
}

// latticeSpacing returns the approximate angular distance between
// adjacent cell centers near cell c, in radians.
func (c CellID) latticeSpacing() float64 {
	n := c.Resolution().Subdivisions()
	return edgeAngle / float64(n)
}

// Neighbors returns the cells adjacent to c (6 for hexagons, 5 at the
// twelve pentagon cells). Adjacency is resolved geometrically by probing
// around the cell center, which is exact away from face boundaries and
// conservative across them.
func (c CellID) Neighbors() []CellID {
	center := c.LatLng()
	delta := c.latticeSpacing()
	type cand struct {
		id CellID
		d  float64
	}
	seen := map[CellID]bool{c: true}
	var cands []cand
	for _, radius := range []float64{0.8, 1.0, 1.2} {
		for step := 0; step < 24; step++ {
			bearing := float64(step) * 15
			probe := geo.Destination(center, bearing, radius*delta*geo.EarthRadiusKm)
			id := LatLngToCell(probe, c.Resolution())
			if seen[id] {
				continue
			}
			seen[id] = true
			if d := geo.AngularDistance(center, id.LatLng()); d < 1.6*delta {
				cands = append(cands, cand{id: id, d: d})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// Adjacent cells sit within ~±20% of the local lattice spacing;
	// the second ring starts near sqrt(3)x. Filter relative to the
	// closest candidate so distortion near pentagons cannot admit
	// second-ring cells.
	minD := cands[0].d
	for _, cd := range cands {
		if cd.d < minD {
			minD = cd.d
		}
	}
	var out []CellID
	for _, cd := range cands {
		if cd.d <= 1.35*minD {
			out = append(out, cd.id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ForEachCell calls fn once for every cell on the globe at resolution r,
// in canonical ID order per face. It visits each cell exactly once.
// Enumeration is O(total cells) and intended for the coarse resolutions;
// at resolution 5 the globe has about 2 million cells.
func ForEachCell(r Resolution, fn func(CellID)) {
	for f := 0; f < 20; f++ {
		ForEachCellOnFace(r, f, fn)
	}
}

// ForEachCellOnFace enumerates the cells whose canonical representation
// lives on one icosahedron face (0..19), in ascending (i, j) order. The
// 20 face shards are disjoint and together cover the globe, so callers
// can enumerate faces concurrently and concatenate the shards in face
// order to reproduce ForEachCell's exact visit order.
func ForEachCellOnFace(r Resolution, face int, fn func(CellID)) {
	n := r.Subdivisions()
	for i := 0; i <= n; i++ {
		for j := 0; i+j <= n; j++ {
			id := canonicalize(r, face, i, j)
			if id.Face() == face {
				fi, fj := id.Coords()
				if fi == i && fj == j {
					fn(id)
				}
			}
		}
	}
}
