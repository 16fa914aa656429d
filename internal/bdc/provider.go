package bdc

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"leodivide/internal/demand"
)

// The real Broadband Data Collection is provider-granular: each ISP
// files an availability record per location it claims to serve, and the
// National Broadband Map's per-location "max speed" is the best of
// those claims. This file models that layer: provider records, the
// dedup-to-best-service reduction, and the provider-level CSV format —
// the data handling a consumer of real BDC extracts must implement.

// ProviderRecord is one ISP's availability claim at one location.
type ProviderRecord struct {
	// LocationID ties the claim to a serviceable location.
	LocationID uint64
	// ProviderID is the FCC provider identifier.
	ProviderID int
	// ProviderName is the ISP's name.
	ProviderName string
	// Technology is the claimed access technology.
	Technology string
	// MaxDownMbps and MaxUpMbps are the claimed speeds.
	MaxDownMbps, MaxUpMbps float64
	// LowLatency reports the FCC low-latency flag (≤100 ms).
	LowLatency bool
}

// providers is the synthetic ISP roster used by the generator.
var providerRoster = []struct {
	id   int
	name string
	tech string
}{
	{130077, "Windstream", "dsl"},
	{130228, "CenturyLink", "dsl"},
	{130317, "Frontier", "dsl"},
	{290111, "Rise Broadband", "fixed-wireless"},
	{290245, "Nextlink", "fixed-wireless"},
	{170091, "Mediacom", "cable"},
	{170002, "Sparklight", "cable"},
	{460001, "HughesNet", "satellite"},
	{460002, "Viasat", "satellite"},
}

// GenerateProviderRecords expands locations into 1-3 provider claims
// each, such that the per-location best service equals the location's
// recorded maximum. Deterministic for a given seed.
func GenerateProviderRecords(seed int64, locs []demand.Location) []ProviderRecord {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	var out []ProviderRecord
	for _, l := range locs {
		n := 1 + rng.Intn(3)
		// The first record carries the location's best service.
		out = append(out, providerClaim(rng, l, l.MaxDownMbps, l.MaxUpMbps, l.Technology))
		for k := 1; k < n; k++ {
			// Additional claims are strictly worse. Speeds are rounded
			// to the 0.01 Mbps granularity of the filing format.
			down := math.Floor(l.MaxDownMbps*(0.2+0.6*rng.Float64())*100) / 100
			up := math.Floor(l.MaxUpMbps*(0.2+0.6*rng.Float64())*100) / 100
			r := providerRoster[rng.Intn(len(providerRoster))]
			out = append(out, ProviderRecord{
				LocationID:   l.ID,
				ProviderID:   r.id,
				ProviderName: r.name,
				Technology:   r.tech,
				MaxDownMbps:  down,
				MaxUpMbps:    up,
				LowLatency:   r.tech != "satellite",
			})
		}
	}
	return out
}

func providerClaim(rng *rand.Rand, l demand.Location, down, up float64, tech string) ProviderRecord {
	// Pick a roster provider matching the location's technology when
	// possible.
	matches := make([]int, 0, len(providerRoster))
	for i, r := range providerRoster {
		if r.tech == tech {
			matches = append(matches, i)
		}
	}
	idx := rng.Intn(len(providerRoster))
	if len(matches) > 0 {
		idx = matches[rng.Intn(len(matches))]
	}
	r := providerRoster[idx]
	return ProviderRecord{
		LocationID:   l.ID,
		ProviderID:   r.id,
		ProviderName: r.name,
		Technology:   tech,
		MaxDownMbps:  down,
		MaxUpMbps:    up,
		LowLatency:   tech != "satellite",
	}
}

var providerCSVHeader = []string{
	"location_id", "provider_id", "provider_name", "technology",
	"max_download_mbps", "max_upload_mbps", "low_latency",
}

// WriteProviderCSV writes provider records in the BDC availability
// schema.
func WriteProviderCSV(w io.Writer, records []ProviderRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(providerCSVHeader); err != nil {
		return fmt.Errorf("bdc: writing provider header: %w", err)
	}
	for _, r := range records {
		rec := []string{
			strconv.FormatUint(r.LocationID, 10),
			strconv.Itoa(r.ProviderID),
			r.ProviderName,
			r.Technology,
			strconv.FormatFloat(r.MaxDownMbps, 'f', 2, 64),
			strconv.FormatFloat(r.MaxUpMbps, 'f', 2, 64),
			strconv.FormatBool(r.LowLatency),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("bdc: writing provider record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadProviderCSV parses provider availability records.
func ReadProviderCSV(r io.Reader) ([]ProviderRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(providerCSVHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("bdc: reading provider header: %w", err)
	}
	for i, h := range providerCSVHeader {
		if header[i] != h {
			return nil, fmt.Errorf("bdc: provider header field %d is %q, want %q", i, header[i], h)
		}
	}
	var out []ProviderRecord
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("bdc: line %d: %w", line, err)
		}
		locID, err := strconv.ParseUint(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bdc: line %d: bad location_id %q", line, rec[0])
		}
		provID, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("bdc: line %d: bad provider_id %q", line, rec[1])
		}
		down, err1 := strconv.ParseFloat(rec[4], 64)
		up, err2 := strconv.ParseFloat(rec[5], 64)
		if err1 != nil || err2 != nil || down < 0 || up < 0 {
			return nil, fmt.Errorf("bdc: line %d: bad speeds", line)
		}
		lowLat, err := strconv.ParseBool(rec[6])
		if err != nil {
			return nil, fmt.Errorf("bdc: line %d: bad low_latency %q", line, rec[6])
		}
		out = append(out, ProviderRecord{
			LocationID:   locID,
			ProviderID:   provID,
			ProviderName: rec[2],
			Technology:   rec[3],
			MaxDownMbps:  down,
			MaxUpMbps:    up,
			LowLatency:   lowLat,
		})
	}
	return out, nil
}
