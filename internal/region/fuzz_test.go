package region

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzRegionSpec hammers the strict spec decoder: whatever the bytes —
// malformed JSON, NaN/Inf densities smuggled through hand-edited
// files, negative cell counts, out-of-range latitudes — it must either
// return a spec that passes Validate or an error. It must never panic.
func FuzzRegionSpec(f *testing.F) {
	for _, spec := range []SyntheticSpec{brazilRuralSpec, taipeiDenseSpec} {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"key":"x","cells":-3}`))
	f.Add([]byte(`{"key":"x","lat_min_deg":-95,"lat_max_deg":200}`))
	f.Add([]byte(`{"key":"x","density_anchors":[{"q":0,"weight":1e309}]}`))
	f.Add([]byte(`{"key":"x","total_locations":100}{"trailing":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSyntheticSpec(data)
		if err != nil {
			return
		}
		// An accepted spec must be coherent: Validate is the acceptance
		// criterion ParseSyntheticSpec promises.
		if verr := spec.Validate(); verr != nil {
			t.Errorf("ParseSyntheticSpec accepted a spec that fails Validate: %v\ninput: %q", verr, data)
		}
	})
}

// ParseSyntheticSpec decodes a spec strictly: unknown fields, trailing
// data, and any Validate violation are errors. It never panics,
// whatever the input — the FuzzRegionSpec target enforces that, so the
// fuzzer reaches Validate through a decoder as hostile input would.
func ParseSyntheticSpec(data []byte) (SyntheticSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SyntheticSpec
	if err := dec.Decode(&s); err != nil {
		return SyntheticSpec{}, fmt.Errorf("region: synthetic spec: %w", err)
	}
	if dec.More() {
		return SyntheticSpec{}, fmt.Errorf("region: synthetic spec: trailing data after JSON object")
	}
	if err := s.Validate(); err != nil {
		return SyntheticSpec{}, err
	}
	return s, nil
}
