package bdc

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"leodivide/internal/demand"
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

// WriteCellsCSV writes aggregated per-cell records, in ID order.
func WriteCellsCSV(w io.Writer, cells demand.Cells) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(cellCSVHeader); err != nil {
		return fmt.Errorf("bdc: writing cell header: %w", err)
	}
	for i := range cells.Len() {
		c := cells.At(i)
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
