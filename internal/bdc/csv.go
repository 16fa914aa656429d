package bdc

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

// csvHeader is the BDC-style location schema. Field order is part of
// the format.
var csvHeader = []string{
	"location_id", "latitude", "longitude", "state", "county_fips",
	"max_download_mbps", "max_upload_mbps", "technology",
}

// cellCSVHeader is the aggregated per-cell schema.
var cellCSVHeader = []string{
	"cell_id", "latitude", "longitude", "county_fips", "unserved_locations",
}

// WriteLocationsCSV writes location records in the BDC-style schema.
func WriteLocationsCSV(w io.Writer, locs []demand.Location) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("bdc: writing header: %w", err)
	}
	for _, l := range locs {
		rec := []string{
			strconv.FormatUint(l.ID, 10),
			// Shortest round-trip formatting: a written coordinate parses
			// back to the identical float64, so save→load is a fixpoint
			// (6-decimal quantization used to perturb downstream results
			// at the 1e-9 level).
			strconv.FormatFloat(l.Pos.Lat, 'f', -1, 64),
			strconv.FormatFloat(l.Pos.Lng, 'f', -1, 64),
			l.StateAbbr,
			l.CountyFIPS,
			strconv.FormatFloat(l.MaxDownMbps, 'f', 2, 64),
			strconv.FormatFloat(l.MaxUpMbps, 'f', 2, 64),
			l.Technology,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("bdc: writing location %d: %w", l.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadLocationsCSV parses a BDC-style location file, validating every
// record and rejecting duplicate location IDs.
func ReadLocationsCSV(r io.Reader) ([]demand.Location, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("bdc: reading header: %w", err)
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("bdc: header field %d is %q, want %q", i, header[i], h)
		}
	}
	var out []demand.Location
	seen := make(map[uint64]bool)
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
		l, err := parseLocation(rec)
		if err != nil {
			return nil, fmt.Errorf("bdc: line %d: %w", line, err)
		}
		if seen[l.ID] {
			return nil, fmt.Errorf("bdc: line %d: duplicate location_id %d", line, l.ID)
		}
		seen[l.ID] = true
		out = append(out, l)
	}
	return out, nil
}

func parseLocation(rec []string) (demand.Location, error) {
	var l demand.Location
	id, err := strconv.ParseUint(rec[0], 10, 64)
	if err != nil {
		return l, fmt.Errorf("bad location_id %q: %w", rec[0], err)
	}
	lat, err := strconv.ParseFloat(rec[1], 64)
	if err != nil {
		return l, fmt.Errorf("bad latitude %q: %w", rec[1], err)
	}
	lng, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return l, fmt.Errorf("bad longitude %q: %w", rec[2], err)
	}
	pos := geo.LatLng{Lat: lat, Lng: lng}
	if !pos.Valid() {
		return l, fmt.Errorf("coordinate %v out of range", pos)
	}
	down, err := strconv.ParseFloat(rec[5], 64)
	if err != nil || down < 0 {
		return l, fmt.Errorf("bad max_download_mbps %q", rec[5])
	}
	up, err := strconv.ParseFloat(rec[6], 64)
	if err != nil || up < 0 {
		return l, fmt.Errorf("bad max_upload_mbps %q", rec[6])
	}
	if !ValidFIPS(rec[4]) {
		return l, fmt.Errorf("bad county_fips %q: want 5 digits", rec[4])
	}
	return demand.Location{
		ID:          id,
		Pos:         pos,
		StateAbbr:   rec[3],
		CountyFIPS:  rec[4],
		MaxDownMbps: down,
		MaxUpMbps:   up,
		Technology:  rec[7],
	}, nil
}

// WriteCellsCSV writes aggregated per-cell records.
func WriteCellsCSV(w io.Writer, cells []demand.Cell) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(cellCSVHeader); err != nil {
		return fmt.Errorf("bdc: writing cell header: %w", err)
	}
	for _, c := range cells {
		rec := []string{
			strconv.FormatUint(uint64(c.ID), 10),
			// Shortest round-trip formatting (see WriteLocationsCSV).
			strconv.FormatFloat(c.Center.Lat, 'f', -1, 64),
			strconv.FormatFloat(c.Center.Lng, 'f', -1, 64),
			c.CountyFIPS,
			strconv.Itoa(c.Locations),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("bdc: writing cell %v: %w", c.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCellsCSV parses aggregated per-cell records, enforcing the same
// invariants the writer side guarantees: well-formed cell IDs with no
// duplicates, coordinates on Earth, and digit-checked county FIPS. A
// file that violates any of them — hand-edited, truncated mid-record,
// or corrupted on disk — is rejected, never partially ingested.
func ReadCellsCSV(r io.Reader) ([]demand.Cell, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(cellCSVHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("bdc: reading cell header: %w", err)
	}
	for i, h := range cellCSVHeader {
		if header[i] != h {
			return nil, fmt.Errorf("bdc: cell header field %d is %q, want %q", i, header[i], h)
		}
	}
	var out []demand.Cell
	seen := make(map[hexgrid.CellID]int)
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
		id, err := strconv.ParseUint(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bdc: line %d: bad cell_id %q", line, rec[0])
		}
		cid := hexgrid.CellID(id)
		if !cid.Valid() {
			return nil, fmt.Errorf("bdc: line %d: cell_id %d is not a valid cell", line, id)
		}
		if prev, dup := seen[cid]; dup {
			return nil, fmt.Errorf("bdc: line %d: duplicate cell_id %d (first at line %d)", line, id, prev)
		}
		seen[cid] = line
		lat, err1 := strconv.ParseFloat(rec[1], 64)
		lng, err2 := strconv.ParseFloat(rec[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bdc: line %d: bad coordinate", line)
		}
		center := geo.LatLng{Lat: lat, Lng: lng}
		if !center.Valid() {
			return nil, fmt.Errorf("bdc: line %d: coordinate %v out of range", line, center)
		}
		if !ValidFIPS(rec[3]) {
			return nil, fmt.Errorf("bdc: line %d: bad county_fips %q: want 5 digits", line, rec[3])
		}
		n, err := strconv.Atoi(rec[4])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bdc: line %d: bad unserved_locations %q", line, rec[4])
		}
		out = append(out, demand.Cell{
			ID:         cid,
			Center:     center,
			CountyFIPS: rec[3],
			Locations:  n,
		})
	}
	return out, nil
}

// ValidFIPS reports whether s is a well-formed 5-digit county FIPS
// code. Length alone is not enough: "abcde" is 5 characters and was
// historically accepted.
func ValidFIPS(s string) bool {
	if len(s) != 5 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
