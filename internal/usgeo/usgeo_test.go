package usgeo

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"leodivide/internal/geo"
)

func TestStatesTable(t *testing.T) {
	all := States()
	if len(all) != 50 {
		t.Fatalf("got %d states, want 50", len(all))
	}
	seenFIPS := map[string]bool{}
	seenAbbr := map[string]bool{}
	for _, s := range all {
		if len(s.FIPS) != 2 {
			t.Errorf("%s: FIPS %q not 2 digits", s.Abbr, s.FIPS)
		}
		if seenFIPS[s.FIPS] {
			t.Errorf("duplicate FIPS %s", s.FIPS)
		}
		seenFIPS[s.FIPS] = true
		if seenAbbr[s.Abbr] {
			t.Errorf("duplicate abbr %s", s.Abbr)
		}
		seenAbbr[s.Abbr] = true
		if s.LatHi <= s.LatLo || s.LngHi <= s.LngLo {
			t.Errorf("%s: degenerate frame", s.Abbr)
		}
		if s.Counties <= 0 {
			t.Errorf("%s: no counties", s.Abbr)
		}
		if s.RuralWeight <= 0 {
			t.Errorf("%s: nonpositive rural weight", s.Abbr)
		}
	}
	// Texas has the most counties of any state.
	tx, err := ByAbbr("TX")
	if err != nil {
		t.Fatal(err)
	}
	if tx.Counties != 254 {
		t.Errorf("TX counties = %d, want 254", tx.Counties)
	}
}

func TestByAbbr(t *testing.T) {
	if _, err := ByAbbr("ZZ"); err == nil {
		t.Error("unknown state should fail")
	}
	ca, err := ByAbbr("CA")
	if err != nil || ca.Name != "California" {
		t.Errorf("ByAbbr(CA) = %+v, %v", ca, err)
	}
}

func TestStateAtKnownPoints(t *testing.T) {
	cases := []struct {
		p    geo.LatLng
		want string
	}{
		{geo.LatLng{Lat: 39.74, Lng: -104.99}, "CO"}, // Denver
		{geo.LatLng{Lat: 30.27, Lng: -97.74}, "TX"},  // Austin
		{geo.LatLng{Lat: 44.97, Lng: -93.27}, "MN"},  // Minneapolis
		{geo.LatLng{Lat: 21.31, Lng: -157.86}, "HI"}, // Honolulu
		{geo.LatLng{Lat: 61.22, Lng: -149.90}, "AK"}, // Anchorage
	}
	for _, tc := range cases {
		s, ok := StateAt(tc.p)
		if !ok || s.Abbr != tc.want {
			t.Errorf("StateAt(%v) = %v/%v, want %s", tc.p, s.Abbr, ok, tc.want)
		}
	}
	if _, ok := StateAt(geo.LatLng{Lat: 0, Lng: 0}); ok {
		t.Error("mid-Atlantic point should be in no state")
	}
}

func TestCountiesTiling(t *testing.T) {
	for _, abbr := range []string{"TX", "RI", "WV", "AK", "DE"} {
		s, err := ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		counties := Counties(s)
		if len(counties) != s.Counties {
			t.Errorf("%s: %d county tiles, want %d", abbr, len(counties), s.Counties)
		}
		seen := map[string]bool{}
		for _, c := range counties {
			if seen[c.FIPS] {
				t.Errorf("%s: duplicate county FIPS %s", abbr, c.FIPS)
			}
			seen[c.FIPS] = true
			if !strings.HasPrefix(c.FIPS, s.FIPS) {
				t.Errorf("%s: county FIPS %s lacks state prefix", abbr, c.FIPS)
			}
			if len(c.FIPS) != 5 {
				t.Errorf("%s: county FIPS %s not 5 digits", abbr, c.FIPS)
			}
		}
	}
}

// Property: every point in a state's frame belongs to exactly one of
// its county tiles... except the stretched last-row seam, where it
// belongs to at least one.
func TestCountyCoverageProperty(t *testing.T) {
	s, err := ByAbbr("KY") // 120 counties; non-square tiling
	if err != nil {
		t.Fatal(err)
	}
	counties := Counties(s)
	f := func(a, b uint16) bool {
		p := geo.LatLng{
			Lat: s.LatLo + float64(a)/65536*(s.LatHi-s.LatLo),
			Lng: s.LngLo + float64(b)/65536*(s.LngHi-s.LngLo),
		}
		hits := 0
		for _, c := range counties {
			if c.Contains(p) {
				hits++
			}
		}
		return hits >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestCountyAt(t *testing.T) {
	denver := geo.LatLng{Lat: 39.74, Lng: -104.99}
	c, ok := CountyAt(denver)
	if !ok {
		t.Fatal("CountyAt(Denver) not found")
	}
	if c.StateAbbr != "CO" {
		t.Errorf("county state = %s, want CO", c.StateAbbr)
	}
	if !c.Contains(denver) {
		t.Error("returned county does not contain the point")
	}
	if _, ok := CountyAt(geo.LatLng{Lat: 0, Lng: 0}); ok {
		t.Error("ocean point should have no county")
	}
}

func TestAllCounties(t *testing.T) {
	all := AllCounties()
	want := 0
	for _, s := range States() {
		want += s.Counties
	}
	if len(all) != want {
		t.Fatalf("AllCounties = %d, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for i, c := range all {
		if seen[c.FIPS] {
			t.Errorf("duplicate FIPS %s", c.FIPS)
		}
		seen[c.FIPS] = true
		if i > 0 && all[i].FIPS < all[i-1].FIPS {
			t.Error("AllCounties not sorted by FIPS")
		}
	}
}

func TestTotalRuralWeight(t *testing.T) {
	if w := TotalRuralWeight(); w <= 0 || math.IsNaN(w) {
		t.Errorf("TotalRuralWeight = %v", w)
	}
}

func TestCountyCenterContained(t *testing.T) {
	for _, s := range States() {
		for _, c := range Counties(s) {
			if !c.Contains(c.Center()) {
				t.Errorf("%s: county %s does not contain its center", s.Abbr, c.FIPS)
			}
		}
	}
}

func TestGatewaySites(t *testing.T) {
	sites := GatewaySites()
	if len(sites) < 30 {
		t.Fatalf("only %d gateway sites", len(sites))
	}
	seen := map[string]bool{}
	for _, g := range sites {
		if g.Name == "" {
			t.Error("unnamed gateway")
		}
		if seen[g.Name] {
			t.Errorf("duplicate gateway %s", g.Name)
		}
		seen[g.Name] = true
		if !g.Pos.Valid() {
			t.Errorf("gateway %s has invalid position", g.Name)
		}
	}
	// Every CONUS state center should be within 1,700 km of a gateway
	// (the bent-pipe reach at a 10° gateway mask from 550 km).
	for _, s := range States() {
		if s.Abbr == "AK" || s.Abbr == "HI" {
			continue
		}
		c := s.Center()
		best := math.Inf(1)
		for _, g := range sites {
			if d := geo.DistanceKm(c, g.Pos); d < best {
				best = d
			}
		}
		if best > 1700 {
			t.Errorf("%s center is %v km from the nearest gateway", s.Abbr, best)
		}
	}
}

func TestGatewaySitesInNamedState(t *testing.T) {
	// Each gateway's name ends with its state abbreviation; the
	// coordinate must resolve to that state.
	for _, g := range GatewaySites() {
		want := g.Name[len(g.Name)-2:]
		s, ok := StateAt(g.Pos)
		if !ok {
			t.Errorf("gateway %s outside all state frames", g.Name)
			continue
		}
		if s.Abbr != want {
			t.Errorf("gateway %s resolves to %s", g.Name, s.Abbr)
		}
	}
}

// TestCountyTilesShared: the shared tiles equal a fresh tiling for all
// fifty states, Counties hands out copies of them, and a State outside
// the table is tiled afresh.
func TestCountyTilesShared(t *testing.T) {
	for _, s := range States() {
		shared := CountyTiles(s)
		if !slices.Equal(shared, tileCounties(s)) {
			t.Fatalf("%s: shared tiles differ from a fresh tiling", s.Abbr)
		}
		if &CountyTiles(s)[0] != &shared[0] {
			t.Fatalf("%s: CountyTiles rebuilt the tiles", s.Abbr)
		}
		c := Counties(s)
		if !slices.Equal(c, shared) {
			t.Fatalf("%s: Counties differs from the shared tiles", s.Abbr)
		}
		c[0].FIPS = "mutated"
		if CountyTiles(s)[0].FIPS == "mutated" {
			t.Fatalf("%s: Counties returned the shared storage", s.Abbr)
		}
	}
	custom, err := ByAbbr("KY")
	if err != nil {
		t.Fatal(err)
	}
	custom.Counties = 7
	if got := CountyTiles(custom); len(got) != 7 || !slices.Equal(got, tileCounties(custom)) {
		t.Fatalf("custom state: %d tiles, want a fresh tiling of 7", len(got))
	}
}
