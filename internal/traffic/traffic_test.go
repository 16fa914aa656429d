package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

func TestDefaultProfile(t *testing.T) {
	p := DefaultProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Evening peak, overnight trough.
	if h := p.PeakHour(); h < 18 || h > 22 {
		t.Errorf("peak hour = %d, want evening", h)
	}
	if p.PeakFactor() < 1.5 || p.PeakFactor() > 3 {
		t.Errorf("peak factor = %v, want ~2", p.PeakFactor())
	}
	if p[3] > 0.5 {
		t.Errorf("overnight multiplier = %v, want deep trough", p[3])
	}
}

func TestValidateRejects(t *testing.T) {
	var zero DiurnalProfile
	if err := zero.Validate(); err == nil {
		t.Error("zero profile should fail")
	}
	bad := DefaultProfile()
	for i := range bad {
		bad[i] = 2 // mean 2, not 1
	}
	if err := bad.Validate(); err == nil {
		t.Error("unnormalized profile should fail")
	}
}

func TestLocalHour(t *testing.T) {
	// 12:00 UTC at longitude -90 is 06:00 local solar time.
	if got := LocalHour(12, -90); math.Abs(got-6) > 1e-9 {
		t.Errorf("LocalHour(12, -90) = %v, want 6", got)
	}
	if got := LocalHour(0, -120); math.Abs(got-16) > 1e-9 {
		t.Errorf("LocalHour(0, -120) = %v, want 16", got)
	}
	if got := LocalHour(23, 30); math.Abs(got-1) > 1e-9 {
		t.Errorf("LocalHour(23, 30) = %v, want 1", got)
	}
}

// Property: At interpolates within the hourly bracket and is periodic.
func TestAtProperty(t *testing.T) {
	p := DefaultProfile()
	f := func(raw uint16) bool {
		h := float64(raw) / 65535 * 24
		v := p.At(h)
		lo, hi := p[int(h)%24], p[(int(h)+1)%24]
		if lo > hi {
			lo, hi = hi, lo
		}
		if v < lo-1e-9 || v > hi+1e-9 {
			return false
		}
		return math.Abs(p.At(h)-p.At(h+24)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAtWrapsAnyHour: every finite hour wraps onto the day, bit for bit
// against its in-range equivalent, and non-finite hours give NaN. Hours
// below −24 and non-finite hours used to index out of range.
func TestAtWrapsAnyHour(t *testing.T) {
	p := DefaultProfile()
	cases := []struct {
		in, same float64 // At(in) must equal At(same) exactly
	}{
		{-30, 18},
		{-24.5, 23.5},
		{-48, 0},
		{-1e-300, 0},
		{-0.25, 23.75},
		{-1e6 - 3, 5},
		{1e6 + 3, 19},
		{25.5, 1.5},
	}
	for _, c := range cases {
		if got, want := p.At(c.in), p.At(c.same); got != want {
			t.Errorf("At(%v) = %v, want At(%v) = %v", c.in, got, c.same, want)
		}
	}
	for _, in := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := p.At(in); !math.IsNaN(got) {
			t.Errorf("At(%v) = %v, want NaN", in, got)
		}
	}
}

// interp interpolates the profile at an hour already reduced by
// math.Mod(·, 24).
func (p *DiurnalProfile) interp(h float64) float64 {
	lo, frac := bracket(h)
	return p[lo]*(1-frac) + p[(lo+1)%24]*frac
}

// multiplierAt returns a cell's instantaneous demand multiplier at a
// UTC hour: phase is the cell's longitude divided by 15, which shifts
// UTC onto the cell's solar local clock (15° per hour); the profile is
// interpolated between hourly samples there. It is directCurve's
// per-cell term. The second modulo is kept although it looks
// redundant: its rounding is observable, and TestMultiplierAtMatchesAt
// pins the result bit for bit against the two-step local-hour
// reference.
func multiplierAt(p *DiurnalProfile, utcHour, phase float64) float64 {
	h := math.Mod(utcHour+phase+48, 24)
	return p.interp(math.Mod(h+24, 24))
}

// TestMultiplierAtMatchesAt pins multiplierAt's contract: over a grid of
// UTC hours and longitudes, including off-day hours whose reduction
// goes negative, it equals At(LocalHour(utc, lng)) bit for bit.
func TestMultiplierAtMatchesAt(t *testing.T) {
	p := DefaultProfile()
	utcs := []float64{-100, -49.5, -24, -0.1, 1e-9, 23.999999, 24, 30.7, 1e5}
	for s := 0; s < 96; s++ {
		utcs = append(utcs, 24*float64(s)/96)
	}
	lngs := []float64{-180, -179.99, -106.3, -0.1, 0, 1e-12, 33.3, 179.99, 180}
	for lng := -180.0; lng <= 180; lng += 7.5 {
		lngs = append(lngs, lng)
	}
	for _, utc := range utcs {
		for _, lng := range lngs {
			got := multiplierAt(&p, utc, lng/15)
			want := p.At(LocalHour(utc, lng))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("multiplierAt(%v, %v/15) = %v, At(LocalHour) = %v", utc, lng, got, want)
			}
		}
	}
}

// directCurve is the reference the binned kernel replaced: every cell
// evaluated with multiplierAt at every one of steps steps, summed in
// cell order, over the cells in(c) selects.
func directCurve(p DiurnalProfile, cells []demand.Cell, steps int, in func(demand.Cell) bool) []float64 {
	totals := make([]float64, steps)
	for s := range totals {
		utc := 24 * float64(s) / float64(steps)
		for _, c := range cells {
			if in(c) {
				totals[s] += c.DemandGbps() * multiplierAt(&p, utc, c.Center.Lng/15)
			}
		}
	}
	return totals
}

// curves runs binCurves over the cells' columns for steps steps and
// returns the national and footprint curves.
func curves(p DiurnalProfile, cells []demand.Cell, lng, halfWidth float64, steps int) (nat, fp []float64) {
	nat, fp = make([]float64, steps), make([]float64, steps)
	binCurves(&p, columns(cells), lng, halfWidth, nat, fp)
	return nat, fp
}

// columns is demand.NewCells for test cells, which have demand and
// ascend by ID, so the columns keep their order.
func columns(cells []demand.Cell) demand.Cells {
	c, err := demand.NewCells(cells)
	if err != nil {
		panic(err)
	}
	return c
}

// TestNationalCurveColumnsMatchesDirect: the binned kernel, binCurves,
// agrees with the direct per-cell sum at every step within 1e-12
// relative, for the national curve and a footprint alike, across step
// counts whose residue classes differ (gcd with 24 of 1, 2, 8 and 24;
// 1000 steps overflow the kernel's stack histograms; 0 steps is an
// empty curve) and phases on, off and at the ends of hour boundaries.
func TestNationalCurveColumnsMatchesDirect(t *testing.T) {
	p := DefaultProfile()
	rng := rand.New(rand.NewSource(7))
	random := func(n int, phase func() float64) []demand.Cell {
		cells := make([]demand.Cell, n)
		for i := range cells {
			cells[i] = demand.Cell{
				ID:        hexgrid.CellID(i + 1),
				Locations: 1 + int(rng.ExpFloat64()*30),
				Center:    geo.LatLng{Lat: 40, Lng: phase() * 15},
			}
		}
		return cells
	}
	sets := map[string][]demand.Cell{
		"empty":   {},
		"uniform": random(2000, func() float64 { return rng.Float64()*24 - 12 }),
		"hours":   random(300, func() float64 { return float64(rng.Intn(25) - 12) }),
		"quarters": random(300, func() float64 {
			return float64(rng.Intn(97)-48) / 4
		}),
		"ends": random(50, func() float64 { return 12 * float64(2*rng.Intn(2)-1) }),
	}
	const lng, halfWidth = -30, 45
	all := func(demand.Cell) bool { return true }
	member := func(c demand.Cell) bool { return math.Abs(c.Center.Lng-lng) <= halfWidth }
	for _, name := range []string{"empty", "uniform", "hours", "quarters", "ends"} {
		cells := sets[name]
		for _, steps := range []int{0, 2, 5, 7, 24, 96, 97, 1000} {
			t.Run(fmt.Sprintf("%s/steps=%d", name, steps), func(t *testing.T) {
				nat, fp := curves(p, cells, lng, halfWidth, steps)
				for scope, c := range map[string]struct{ got, want []float64 }{
					"national":  {nat, directCurve(p, cells, steps, all)},
					"footprint": {fp, directCurve(p, cells, steps, member)},
				} {
					for s := range c.want {
						got, want := c.got[s], c.want[s]
						if math.Abs(got-want) > 1e-12*math.Max(math.Abs(got), math.Abs(want)) {
							t.Fatalf("%s totals[%d] = %v, direct sum %v", scope, s, got, want)
						}
					}
				}
			})
		}
	}
}

// A non-finite longitude poisons the curve with NaN instead of
// panicking.
func TestNationalCurveColumnsNaNPhase(t *testing.T) {
	cells := []demand.Cell{
		{ID: 1, Locations: 10, Center: geo.LatLng{Lng: -75}},
		{ID: 2, Locations: 20, Center: geo.LatLng{Lng: math.NaN()}},
	}
	totals, _ := curves(DefaultProfile(), cells, 0, 0, 96)
	for s, v := range totals {
		if !math.IsNaN(v) {
			t.Fatalf("totals[%d] = %v, want NaN", s, v)
		}
	}
}

// wrap24 gives math.Mod's bits at the edges of its subtraction domain,
// random points inside it, and every input it hands to math.Mod.
func TestWrap24MatchesMod(t *testing.T) {
	xs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -24, -96, 1e300, math.MaxFloat64, math.Copysign(0, -1)}
	for _, edge := range []float64{0, 24, 48, 72, 96} {
		below, above := edge, edge
		for k := 0; k < 4; k++ {
			below, above = math.Nextafter(below, math.Inf(-1)), math.Nextafter(above, math.Inf(1))
			xs = append(xs, below, above)
		}
		xs = append(xs, edge)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 10000; i++ {
		xs = append(xs, rng.Float64()*96, 36+rng.Float64()*48)
	}
	for _, x := range xs {
		if got, want := wrap24(x), math.Mod(x, 24); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("wrap24(%v) = %v, math.Mod gives %v", x, got, want)
		}
	}
}

func stripCells() []demand.Cell {
	// Cells spread across the CONUS longitude span at one latitude.
	var cells []demand.Cell
	id := 1
	for lng := -124.0; lng <= -68; lng += 2 {
		cells = append(cells, demand.Cell{
			ID:        hexgrid.CellID(id),
			Locations: 500,
			Center:    geo.LatLng{Lat: 39, Lng: lng},
		})
		id++
	}
	return cells
}

func TestNationalCurveFlatterThanCell(t *testing.T) {
	p := DefaultProfile()
	cells := stripCells()
	curve, _ := curves(p, cells, 0, -1, 96)
	national := PeakToMean(curve)
	single := p.PeakFactor()
	if national >= single {
		t.Errorf("national peak-to-mean %v not flatter than single-cell %v", national, single)
	}
	// The mean national demand equals the sum of cell means.
	sum := 0.0
	for _, v := range curve {
		sum += v
	}
	mean := sum / float64(len(curve))
	want := 0.0
	for _, c := range cells {
		want += c.DemandGbps()
	}
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean national demand %v, want ≈%v", mean, want)
	}
}

func TestAnalyzeStagger(t *testing.T) {
	p := DefaultProfile()
	cells := stripCells()
	a, err := AnalyzeStagger(p, columns(cells), 8.5)
	if err != nil {
		t.Fatal(err)
	}
	// The paper-relevant ordering: a cell gets no relief, a satellite
	// footprint (≈1 time zone) almost none, the nation some — but LEO
	// capacity cannot pool nationally.
	if !(a.NationalPeakToMean < a.FootprintPeakToMean &&
		a.FootprintPeakToMean <= a.CellPeakToMean+1e-9) {
		t.Errorf("stagger ordering violated: %+v", a)
	}
	// Footprint relief is marginal (<10% of the cell peak factor).
	if a.FootprintPeakToMean < 0.9*a.CellPeakToMean {
		t.Errorf("footprint relief implausibly large: %+v", a)
	}
	if _, err := AnalyzeStagger(p, demand.Cells{}, 8.5); err == nil {
		t.Error("no cells should fail")
	}
}

func TestPeakToMean(t *testing.T) {
	if got := PeakToMean([]float64{1, 1, 1, 5}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("PeakToMean = %v, want 2.5", got)
	}
	if PeakToMean(nil) != 0 {
		t.Error("empty PeakToMean should be 0")
	}
	if PeakToMean([]float64{0, 0}) != 0 {
		t.Error("zero PeakToMean should be 0")
	}
}

// LocalHour converts a UTC hour to the solar local hour at a longitude
// (15° per hour). With At it is the two-step reference multiplierAt
// must match bit for bit.
func LocalHour(utcHour float64, lngDeg float64) float64 {
	return math.Mod(utcHour+lngDeg/15+48, 24)
}

// At returns the multiplier at a fractional local hour, interpolating
// between hourly samples. Any finite hour wraps onto the day; a
// non-finite hour yields NaN.
func (p DiurnalProfile) At(localHour float64) float64 {
	return p.interp(math.Mod(localHour+24, 24))
}
