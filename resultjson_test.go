package leodivide

// Oracles for AppendResultJSON: its bytes and its errors must be
// json.Marshal's for every result the registry returns and for every
// hand-built Figure 3 value, because the server caches and replays
// them as the response body.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"leodivide/internal/constellation"
	"leodivide/internal/core"
	"leodivide/internal/region"
)

// checkAppendMatchesMarshal fails unless AppendResultJSON, appending
// to both an empty and a non-empty buffer, gives json.Marshal(v)'s
// bytes, or the same error with the buffer handed back unchanged.
func checkAppendMatchesMarshal(t *testing.T, name string, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	for _, prefix := range []string{"", `{"result":`} {
		dst := append(make([]byte, 0, len(prefix)), prefix...)
		got, err := AppendResultJSON(dst, v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: AppendResultJSON error %v, json.Marshal error %v", name, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Errorf("%s: error %q, json.Marshal says %q", name, err, wantErr)
			}
			if string(got) != prefix {
				t.Errorf("%s: failed append returned %q, want the prefix %q back", name, got, prefix)
			}
			continue
		}
		if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: appended bytes differ from json.Marshal\n got %.300s\nwant %.300s", name, got[min(len(prefix), len(got)):], want)
		}
	}
}

// TestAppendResultJSONMatchesMarshal runs every registry experiment on
// every constellation and region at scale 0.02, and Figure 3 at each
// oversubscription cap the serving benchmark uses.
func TestAppendResultJSONMatchesMarshal(t *testing.T) {
	ctx := context.Background()
	run := func(c ScenarioConfig, ds *Dataset) any {
		t.Helper()
		e, ok := c.BuildModel().ExperimentByName(c.Experiment)
		if !ok {
			t.Fatalf("no experiment %q", c.Experiment)
		}
		v, err := e.Run(ctx, ds)
		if err != nil {
			t.Fatalf("%s on %s/%s: %v", c.Experiment, c.Constellation, c.Region, err)
		}
		return v
	}
	for _, reg := range region.Names() {
		base := ScenarioConfig{RunConfig: RunConfig{Seed: 4, Scale: 0.02}, Region: reg}
		ds, err := base.Generate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range constellation.SystemNames() {
			for _, e := range NewModel().Experiments() {
				c := base
				c.Experiment, c.Constellation = e.Name, sys
				checkAppendMatchesMarshal(t, fmt.Sprintf("%s/%s/%s", e.Name, sys, reg), run(c, ds))
			}
		}
		for _, oversub := range []float64{10, 15, 20, 25, 30} {
			c := base
			c.Experiment, c.MaxOversub = "fig3", oversub
			v := run(c, ds)
			if rs := v.([]Fig3Result); len(rs) == 0 || len(rs[0].Points) == 0 {
				t.Fatalf("fig3 at oversub %v on %s has no curve to encode", oversub, reg)
			}
			checkAppendMatchesMarshal(t, fmt.Sprintf("fig3/oversub-%v/%s", oversub, reg), v)
		}
	}
}

// TestAppendFig3JSONEdgeCases covers what a generated curve never
// holds: nil and empty slices, extreme ints, every float-format
// boundary of encoding/json and the floats it refuses.
func TestAppendFig3JSONEdgeCases(t *testing.T) {
	pts := []core.ReturnsPoint{
		{CapLocations: -1, UnservedLocations: math.MinInt, Satellites: math.MaxInt, PeakBeams: 0},
		{CapLocations: 7, UnservedLocations: -42, Satellites: 10, PeakBeams: -9},
	}
	steps := []core.StepCost{{FromUnserved: math.MinInt, ToUnserved: math.MaxInt, LocationsGained: -1, AdditionalSatellites: 0}}
	checkAppendMatchesMarshal(t, "nil result", []Fig3Result(nil))
	checkAppendMatchesMarshal(t, "empty result", []Fig3Result{})
	checkAppendMatchesMarshal(t, "nil slices", []Fig3Result{{}})
	checkAppendMatchesMarshal(t, "empty slices", []Fig3Result{{Points: []core.ReturnsPoint{}, Steps: []core.StepCost{}}})
	checkAppendMatchesMarshal(t, "extreme ints", []Fig3Result{
		{Points: pts, Steps: steps, FloorUnserved: math.MinInt},
		{Points: pts[:1], Steps: nil, FloorUnserved: math.MaxInt},
	})
	// Every digit-count boundary, through the in-place digit writer
	// (an ordered curve that growFig3 sizes) and through its strconv
	// fallback (a curve out of order, so the reserve runs short).
	ints := digitBoundaryInts()
	for i, v := range ints {
		w := ints[len(ints)-1-i]
		ordered := []core.ReturnsPoint{{}, {CapLocations: v, UnservedLocations: v, Satellites: v, PeakBeams: v}}
		if v < 0 {
			ordered[0], ordered[1] = ordered[1], ordered[0]
		}
		checkAppendMatchesMarshal(t, fmt.Sprintf("int %d", v), []Fig3Result{{
			Points: ordered, FloorUnserved: v,
			Steps: []core.StepCost{{FromUnserved: v, ToUnserved: w, LocationsGained: v, AdditionalSatellites: w}},
		}})
		checkAppendMatchesMarshal(t, fmt.Sprintf("unordered int %d", v), []Fig3Result{{
			Points: []core.ReturnsPoint{{}, {CapLocations: v, UnservedLocations: w}, {}},
		}})
	}

	floats := []float64{
		math.Copysign(0, -1), 0, 1, -1, 0.1, 1.5, 123456.789,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100,
		5e-324, -5e-324, math.SmallestNonzeroFloat64,
		1e20, math.Nextafter(1e21, 0), 1e21, -1e21, 1.2345e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range floats {
		checkAppendMatchesMarshal(t, fmt.Sprintf("Spread %v", f), []Fig3Result{{Spread: f, Oversub: 20, Points: pts}})
		checkAppendMatchesMarshal(t, fmt.Sprintf("Oversub %v", f), []Fig3Result{{Spread: 1.5, Oversub: f}, {Oversub: -f}})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rs := range [][]Fig3Result{
			{{Spread: f}},
			{{Spread: 1, Oversub: f, Points: pts}},
			{{Spread: 1, Oversub: 20, Points: pts, Steps: steps}, {Spread: 2, Oversub: f}},
		} {
			if _, err := json.Marshal(rs); err == nil {
				t.Fatalf("json.Marshal accepted %v; the oracle assumes it refuses it", f)
			}
			checkAppendMatchesMarshal(t, fmt.Sprintf("refused %v", f), rs)
		}
	}
}

// digitBoundaryInts are the ints on both sides of every change in
// decimal length: 0, 9 and 10, 99 and 100, each power of ten up to
// math.MaxInt with its predecessor, their negatives, and math.MinInt.
func digitBoundaryInts() []int {
	ints := []int{0, math.MaxInt, -math.MaxInt, math.MinInt}
	for p := 10; ; p *= 10 {
		ints = append(ints, p-1, p, 1-p, -p)
		if p > math.MaxInt/10 {
			return ints
		}
	}
}

// TestAppendIntMatchesStrconv checks the in-place digit writer against
// strconv at every digit-count boundary, with room to spare, with
// exactly enough room, and one byte short of it.
func TestAppendIntMatchesStrconv(t *testing.T) {
	for _, v := range digitBoundaryInts() {
		want := strconv.AppendInt([]byte("x"), int64(v), 10)
		for _, room := range []int{intBytes, len(want) - 1, len(want) - 2} {
			b := make([]byte, 1, 1+room)
			b[0] = 'x'
			if got := appendInt(b, v); !bytes.Equal(got, want) {
				t.Errorf("appendInt(%d) with %d spare bytes = %q, want %q", v, room, got, want)
			}
		}
	}
}

// TestResultJSONFieldsPinned fails when a field of Fig3Result,
// ReturnsPoint or StepCost is added, removed, renamed, retyped or
// tagged: the hand-written encoder spells each field, so such a change
// must change appendFig3JSON with it. It also checks the per-element
// byte counts growFig3 sizes the buffer from.
func TestResultJSONFieldsPinned(t *testing.T) {
	for _, tc := range []struct {
		v      any
		fields []string
		fixed  int
		zeroes int // bytes of the zero value that are numbers or null
	}{
		{Fig3Result{}, []string{"Spread float64", "Oversub float64", "Points []core.ReturnsPoint", "Steps []core.StepCost", "FloorUnserved int"}, fig3FixedBytes, 3 + 2*len("null")},
		{core.ReturnsPoint{}, []string{"CapLocations int", "UnservedLocations int", "Satellites int", "PeakBeams int"}, pointFixedBytes, 4},
		{core.StepCost{}, []string{"FromUnserved int", "ToUnserved int", "LocationsGained int", "AdditionalSatellites int"}, stepFixedBytes, 4},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			if f.Tag != "" {
				t.Errorf("%s.%s has tag %q; appendFig3JSON writes untagged Go field names", typ, f.Name, f.Tag)
			}
			got = append(got, f.Name+" "+f.Type.String())
		}
		if !reflect.DeepEqual(got, tc.fields) {
			t.Errorf("%s fields = %q, appendFig3JSON encodes %q; update the encoder and this list together", typ, got, tc.fields)
		}
		zero, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if fixed := len(zero) - tc.zeroes + len(","); fixed != tc.fixed {
			t.Errorf("%s: %d fixed bytes per element, the buffer sizing assumes %d", typ, fixed, tc.fixed)
		}
	}
}

// TestAppendFig3JSONGrowsOnce pins the buffer sizing on real curves:
// encoding a Figure 3 result allocates once, leaves room for the byte
// that closes the server's response envelope, and over-reserves by at
// most a sixteenth of the body plus each curve's float and int bounds,
// since the cache holds the whole buffer.
func TestAppendFig3JSONGrowsOnce(t *testing.T) {
	ctx := context.Background()
	ds := smallDataset(t, 5)
	for _, oversub := range []float64{10, 20, 30} {
		m := NewModel()
		m.MaxOversub = oversub
		rs, err := m.Fig3(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		var v any = rs
		allocs := testing.AllocsPerRun(5, func() {
			if out, err = AppendResultJSON(nil, v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("oversub %v: %v allocations per encode, want 1", oversub, allocs)
		}
		limit := len(out)/16 + len(rs)*(2*floatBytes+intBytes)
		if slack := cap(out) - len(out); slack < 1 || slack > limit {
			t.Errorf("oversub %v: %d bytes encoded into a %d-byte buffer", oversub, len(out), cap(out))
		}
	}
}

// FuzzAppendFig3JSON builds a Figure 3 result from fuzzed floats and
// ints; the appended bytes, or the error, must be json.Marshal's. shape
// picks nil or empty slices, the point count and a second curve.
func FuzzAppendFig3JSON(f *testing.F) {
	for _, x := range []float64{
		math.Copysign(0, -1), 1e-6, 1e-7, 1e-10, 1e21, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(x, 20.0, int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64), uint8(0x1f))
		f.Add(1.5, x, int64(42), int64(5000), int64(12), int64(3), uint8(0x2e))
	}
	for _, v := range digitBoundaryInts() {
		f.Add(1.5, 20.0, int64(v), int64(-v), int64(v), int64(v/10), uint8(0x17))
	}
	f.Fuzz(func(t *testing.T, spread, oversub float64, a, b, c, d int64, shape uint8) {
		mk := func(a, b, c, d int64) core.ReturnsPoint {
			return core.ReturnsPoint{CapLocations: int(a), UnservedLocations: int(b), Satellites: int(c), PeakBeams: int(d)}
		}
		r := Fig3Result{Spread: spread, Oversub: oversub, FloorUnserved: int(a)}
		if shape&1 != 0 {
			r.Points = []core.ReturnsPoint{}
			for i := range int(shape>>2) & 3 {
				r.Points = append(r.Points, mk(a+int64(i), b, c, d), mk(d, c, b, a))
			}
		}
		if shape&2 != 0 {
			r.Steps = []core.StepCost{{FromUnserved: int(b), ToUnserved: int(c), LocationsGained: int(d), AdditionalSatellites: int(a)}}
		}
		rs := []Fig3Result{r}
		if shape&0x10 != 0 {
			rs = append(rs, Fig3Result{Spread: oversub, Oversub: spread, Points: r.Points, FloorUnserved: int(d)})
		}
		if shape&0x20 != 0 {
			rs = nil
		}
		checkAppendMatchesMarshal(t, fmt.Sprintf("%#v", rs), rs)
	})
}
