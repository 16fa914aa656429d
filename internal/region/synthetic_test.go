package region

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"leodivide/internal/census"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

// testSpec returns a small valid spec for mutation in table tests.
func testSpec() SyntheticSpec {
	return SyntheticSpec{
		Key:            "test-band",
		Name:           "Test Band",
		Description:    "a small synthetic band for tests",
		Resolution:     5,
		LatMinDeg:      10,
		LatMaxDeg:      20,
		LngMinDeg:      -50,
		LngMaxDeg:      -30,
		TotalLocations: 50_000,
		Cells:          40,
		DensityAnchors: []DensityAnchor{{Q: 0, Weight: 1}, {Q: 1, Weight: 30}},
		Peaks:          []SyntheticPeak{{Locations: 2000, LatDeg: 15, LngDeg: -40}},
		Districts:      5,
		DistrictPrefix: "90",
		RegionAbbr:     "ZZ",
		IncomeAnchors: []census.QuantileAnchor{
			{Q: 0, Income: 8000}, {Q: 0.5, Income: 20000}, {Q: 1, Income: 90000},
		},
	}
}

func TestParseSyntheticSpecRoundTrip(t *testing.T) {
	for _, spec := range []SyntheticSpec{testSpec(), brazilRuralSpec, taipeiDenseSpec} {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Key, err)
		}
		got, err := ParseSyntheticSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", spec.Key, err)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: round trip drifted:\n got %+v\nwant %+v", spec.Key, got, spec)
		}
	}
}

// TestParseSyntheticSpecRejects pins the decoder's error surface: every
// malformed input errors (never panics) with a diagnosable message.
func TestParseSyntheticSpecRejects(t *testing.T) {
	mutate := func(fn func(*SyntheticSpec)) string {
		s := testSpec()
		fn(&s)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", "not a spec", "synthetic spec"},
		{"unknown field", `{"key":"x","warp":9}`, "unknown field"},
		{"trailing data", mutate(func(*SyntheticSpec) {}) + `{"again":true}`, "trailing data"},
		{"nan density weight", `{"key":"x","density_anchors":[{"q":0,"weight":NaN}]}`, "synthetic spec"},
		{"inf latitude", `{"key":"x","lat_min_deg":-Inf}`, "synthetic spec"},
		{"empty key", mutate(func(s *SyntheticSpec) { s.Key = "" }), "invalid region key"},
		{"uppercase key", mutate(func(s *SyntheticSpec) { s.Key = "Test" }), "invalid region key"},
		{"edge hyphen key", mutate(func(s *SyntheticSpec) { s.Key = "-test" }), "invalid region key"},
		{"no name", mutate(func(s *SyntheticSpec) { s.Name = "" }), "no name"},
		{"bad resolution", mutate(func(s *SyntheticSpec) { s.Resolution = 99 }), "invalid resolution"},
		{"lat below -90", mutate(func(s *SyntheticSpec) { s.LatMinDeg = -91 }), "latitude bounds"},
		{"lat above 90", mutate(func(s *SyntheticSpec) { s.LatMaxDeg = 90.5 }), "latitude bounds"},
		{"lat min >= max", mutate(func(s *SyntheticSpec) { s.LatMinDeg, s.LatMaxDeg = 20, 10 }), "latitude bounds"},
		{"lng out of range", mutate(func(s *SyntheticSpec) { s.LngMaxDeg = 181 }), "longitude bounds"},
		{"zero total", mutate(func(s *SyntheticSpec) { s.TotalLocations = 0 }), "total locations"},
		{"negative total", mutate(func(s *SyntheticSpec) { s.TotalLocations = -5 }), "total locations"},
		{"negative cells", mutate(func(s *SyntheticSpec) { s.Cells = -1 }), "cell count"},
		{"one density anchor", mutate(func(s *SyntheticSpec) {
			s.DensityAnchors = s.DensityAnchors[:1]
		}), "at least 2 density anchors"},
		{"non-positive weight", mutate(func(s *SyntheticSpec) {
			s.DensityAnchors[0].Weight = 0
		}), "must be positive"},
		{"decreasing weights", mutate(func(s *SyntheticSpec) {
			s.DensityAnchors = []DensityAnchor{{Q: 0, Weight: 5}, {Q: 1, Weight: 1}}
		}), "must increase"},
		{"anchors not spanning", mutate(func(s *SyntheticSpec) {
			s.DensityAnchors = []DensityAnchor{{Q: 0.1, Weight: 1}, {Q: 1, Weight: 5}}
		}), "span Q=0..1"},
		{"peak outside box", mutate(func(s *SyntheticSpec) {
			s.Peaks[0].LatDeg = 80
		}), "outside the footprint box"},
		{"non-positive peak", mutate(func(s *SyntheticSpec) {
			s.Peaks[0].Locations = 0
		}), "must be positive"},
		{"peaks exceed total", mutate(func(s *SyntheticSpec) {
			s.Peaks[0].Locations = s.TotalLocations
		}), "exceed total"},
		{"zero districts", mutate(func(s *SyntheticSpec) { s.Districts = 0 }), "districts"},
		{"districts above cells", mutate(func(s *SyntheticSpec) {
			s.Districts = s.Cells + len(s.Peaks) + 1
		}), "districts"},
		{"bad prefix", mutate(func(s *SyntheticSpec) { s.DistrictPrefix = "9A" }), "two digits"},
		{"no abbr", mutate(func(s *SyntheticSpec) { s.RegionAbbr = "" }), "abbreviation"},
		{"bad income anchors", mutate(func(s *SyntheticSpec) {
			s.IncomeAnchors = []census.QuantileAnchor{{Q: 0, Income: 5}}
		}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSyntheticSpec([]byte(tc.data))
			if err == nil {
				t.Fatalf("ParseSyntheticSpec accepted %q", tc.data)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateNonFinite: JSON cannot carry NaN/Inf, but hand-built
// specs can; Validate must catch every non-finite numeric field.
func TestValidateNonFinite(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SyntheticSpec)
	}{
		{"nan lat bound", func(s *SyntheticSpec) { s.LatMinDeg = math.NaN() }},
		{"inf lng bound", func(s *SyntheticSpec) { s.LngMaxDeg = math.Inf(1) }},
		{"nan density q", func(s *SyntheticSpec) { s.DensityAnchors[0].Q = math.NaN() }},
		{"inf density weight", func(s *SyntheticSpec) { s.DensityAnchors[1].Weight = math.Inf(1) }},
		{"nan peak lat", func(s *SyntheticSpec) { s.Peaks[0].LatDeg = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Error("Validate accepted a non-finite spec")
			}
		})
	}
}

// TestBodyCounts pins the largest-remainder split: exact total, one
// location per cell minimum, ascending order, and a clean error when
// the total cannot cover the cells.
func TestBodyCounts(t *testing.T) {
	s := testSpec()
	for _, total := range []int{40, 41, 1000, 48_000} {
		counts, err := s.bodyCounts(total, s.Cells)
		if err != nil {
			t.Fatalf("bodyCounts(%d): %v", total, err)
		}
		if len(counts) != s.Cells {
			t.Fatalf("bodyCounts(%d) returned %d cells, want %d", total, len(counts), s.Cells)
		}
		sum := 0
		for i, c := range counts {
			if c < 1 {
				t.Fatalf("bodyCounts(%d): cell %d has %d locations, want >= 1", total, i, c)
			}
			if i > 0 && c < counts[i-1] {
				t.Fatalf("bodyCounts(%d): counts not ascending at %d: %v", total, i, counts)
			}
			sum += c
		}
		if sum != total {
			t.Fatalf("bodyCounts(%d) sums to %d", total, sum)
		}
	}
	if _, err := s.bodyCounts(s.Cells-1, s.Cells); err == nil {
		t.Error("bodyCounts accepted total < cells")
	} else if !strings.Contains(err.Error(), "scale too small") {
		t.Errorf("undersized total error %q does not mention scale", err)
	}
}

// TestShapeAtMonotone: the log-linear interpolation respects the
// anchored envelope — non-decreasing in q, clamped at the endpoints.
func TestShapeAtMonotone(t *testing.T) {
	s := brazilRuralSpec
	prev := s.shapeAt(-0.5)
	if prev != s.DensityAnchors[0].Weight {
		t.Errorf("shapeAt(-0.5) = %v, want the first anchor weight %v", prev, s.DensityAnchors[0].Weight)
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		w := s.shapeAt(q)
		if w < prev {
			t.Fatalf("shapeAt(%v) = %v dropped below %v", q, w, prev)
		}
		prev = w
	}
	if got := s.shapeAt(1.5); got != s.DensityAnchors[len(s.DensityAnchors)-1].Weight {
		t.Errorf("shapeAt(1.5) = %v, want the last anchor weight", got)
	}
}

// TestSyntheticGenerate: structural invariants of a generated synthetic
// region — exact scaled totals, the declared cell count, ID-sorted
// cells, district codes within the declared space, and an income table
// covering every district.
func TestSyntheticGenerate(t *testing.T) {
	ctx := context.Background()
	for _, r := range []Region{BrazilRural(), TaipeiDense()} {
		spec := r.(synthetic).spec
		for _, scale := range []float64{0.02, 0.05, 1} {
			out, err := r.Generate(ctx, GenConfig{Seed: 1, Scale: scale})
			if err != nil {
				t.Fatalf("%s scale %v: %v", r.Key(), scale, err)
			}
			wantTotal := spec.TotalLocations
			if scale < 1 {
				wantTotal = int(float64(wantTotal) * scale)
			}
			if got := out.Dist.TotalLocations(); got != wantTotal {
				t.Errorf("%s scale %v: total %d, want %d", r.Key(), scale, got, wantTotal)
			}
			if got, want := out.Cells.Len(), spec.Cells+len(spec.Peaks); got != want {
				t.Errorf("%s scale %v: %d cells, want %d", r.Key(), scale, got, want)
			}
			if out.Resolution != spec.Resolution {
				t.Errorf("%s: resolution %d, want %d", r.Key(), out.Resolution, spec.Resolution)
			}
			districts := map[string]bool{}
			for i := range out.Cells.Len() {
				c := out.Cells.At(i)
				if i > 0 && out.Cells.At(i-1).ID >= c.ID {
					t.Fatalf("%s: cells not strictly ID-sorted at %d", r.Key(), i)
				}
				if c.Locations < 1 {
					t.Fatalf("%s: cell %d has %d locations", r.Key(), i, c.Locations)
				}
				lat := c.Center.Lat
				if lat < spec.LatMinDeg-1 || lat > spec.LatMaxDeg+1 {
					t.Fatalf("%s: cell %d center lat %v far outside the footprint", r.Key(), i, lat)
				}
				if !strings.HasPrefix(c.CountyFIPS, spec.DistrictPrefix) || len(c.CountyFIPS) != 5 {
					t.Fatalf("%s: district code %q malformed", r.Key(), c.CountyFIPS)
				}
				districts[c.CountyFIPS] = true
			}
			if len(districts) != spec.Districts {
				t.Errorf("%s scale %v: %d districts, want %d", r.Key(), scale, len(districts), spec.Districts)
			}
			for code := range districts {
				if _, ok := out.Incomes.Lookup(code); !ok {
					t.Errorf("%s: district %s missing from the income table", r.Key(), code)
				}
			}
		}
	}
}

// TestSyntheticSeedSensitivity: different seeds place the body cells at
// different sites — the seed is a real input, not a label.
func TestSyntheticSeedSensitivity(t *testing.T) {
	ctx := context.Background()
	r := BrazilRural()
	a, err := r.Generate(ctx, GenConfig{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Generate(ctx, GenConfig{Seed: 2, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, b.Cells) {
		t.Error("seeds 1 and 2 generated identical cells")
	}
}

// TestSyntheticGenerateErrors: generation failure modes error cleanly.
func TestSyntheticGenerateErrors(t *testing.T) {
	ctx := context.Background()
	t.Run("invalid scale", func(t *testing.T) {
		for _, scale := range []float64{0, -1, 1.5, math.NaN(), math.Inf(1)} {
			if _, err := BrazilRural().Generate(ctx, GenConfig{Seed: 1, Scale: scale}); err == nil {
				t.Errorf("scale %v accepted", scale)
			}
		}
	})
	t.Run("scale too small for the cell count", func(t *testing.T) {
		_, err := BrazilRural().Generate(ctx, GenConfig{Seed: 1, Scale: 0.0001})
		if err == nil || !strings.Contains(err.Error(), "scale too small") {
			t.Errorf("got %v, want a scale-too-small error", err)
		}
	})
	t.Run("footprint too small for the cell count", func(t *testing.T) {
		s := testSpec()
		s.LatMinDeg, s.LatMaxDeg = 15, 15.2
		s.LngMinDeg, s.LngMaxDeg = -40.2, -40
		s.Cells = 4000
		s.Districts = 5
		r, err := NewSynthetic(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Generate(ctx, GenConfig{Seed: 1, Scale: 1}); err == nil ||
			!strings.Contains(err.Error(), "free cells") {
			t.Errorf("got %v, want a footprint-too-small error", err)
		}
	})
	t.Run("peak collision", func(t *testing.T) {
		s := testSpec()
		s.Peaks = []SyntheticPeak{
			{Locations: 100, LatDeg: 15, LngDeg: -40},
			{Locations: 100, LatDeg: 15.0001, LngDeg: -40.0001},
		}
		r, err := NewSynthetic(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Generate(ctx, GenConfig{Seed: 1, Scale: 1}); err == nil ||
			!strings.Contains(err.Error(), "collide") {
			t.Errorf("got %v, want a peak-collision error", err)
		}
	})
}

// TestNewSyntheticRejectsInvalid: the constructor validates.
func TestNewSyntheticRejectsInvalid(t *testing.T) {
	s := testSpec()
	s.Key = "NOT-VALID"
	if _, err := NewSynthetic(s); err == nil {
		t.Error("NewSynthetic accepted an invalid spec")
	}
}

// TestPeakCellIsPeak: the pinned peak anchor really carries its
// declared scaled count, on the grid cell containing the anchor.
func TestPeakCellIsPeak(t *testing.T) {
	r := TaipeiDense()
	spec := r.(synthetic).spec
	out, err := r.Generate(context.Background(), GenConfig{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range spec.Peaks {
		id := hexgrid.LatLngToCell(geo.LatLng{Lat: p.LatDeg, Lng: p.LngDeg}, spec.Resolution)
		found := false
		for i := range out.Cells.Len() {
			if c := out.Cells.At(i); c.ID == id {
				found = true
				if c.Locations != p.Locations {
					t.Errorf("peak cell %v has %d locations, want %d", id, c.Locations, p.Locations)
				}
			}
		}
		if !found {
			t.Errorf("peak anchor cell %v missing from the output", id)
		}
	}
}
