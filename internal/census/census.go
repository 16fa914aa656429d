// Package census is the demographic substrate: county-level median
// household income in the style of the US Census ACS table S2801/S1901,
// plus the federal poverty guideline and Lifeline subsidy rules the
// affordability analysis uses.
//
// Real ACS extracts are not shipped; incomes are assigned synthetically
// but calibrated so the *location-weighted* income distribution over
// un(der)served locations reproduces the paper's affordability anchors
// (74.5% of locations below the $72,000 Starlink threshold, ≈64% below
// the $66,450 Lifeline-adjusted threshold, fewer than 0.01% below the
// $30,000 Spectrum threshold). See DESIGN.md §1 for the substitution
// argument.
package census

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Federal assistance constants (2025 program parameters used by the
// paper).
const (
	// LifelineMonthlySubsidyUSD is the Lifeline program's monthly
	// broadband subsidy.
	LifelineMonthlySubsidyUSD = 9.25

	// LifelineEligibilityFPLMultiple is the income cutoff for Lifeline,
	// as a multiple of the Federal Poverty Level.
	LifelineEligibilityFPLMultiple = 1.35

	// FederalPovertyLevelBaseUSD and FederalPovertyLevelPerPersonUSD
	// approximate the 48-state poverty guideline: base + per-person.
	FederalPovertyLevelBaseUSD      = 10380
	FederalPovertyLevelPerPersonUSD = 5380
)

// FederalPovertyLevelUSD returns the poverty guideline for a household
// of the given size.
func FederalPovertyLevelUSD(householdSize int) float64 {
	if householdSize < 1 {
		householdSize = 1
	}
	return FederalPovertyLevelBaseUSD + FederalPovertyLevelPerPersonUSD*float64(householdSize)
}

// QuantileAnchor pins the location-weighted income quantile function at
// one point.
type QuantileAnchor struct {
	Q      float64 // location-weighted quantile in [0, 1]
	Income float64 // annual household income, USD
}

// DefaultIncomeAnchors returns the calibration anchors derived from the
// paper's Figure 4 and Finding 4 (see package comment). Interpolation
// between anchors is log-linear in income.
func DefaultIncomeAnchors() []QuantileAnchor {
	return []QuantileAnchor{
		{Q: 0.0, Income: 28800},     // Starlink curve reaches zero at 5.0% of income
		{Q: 0.00008, Income: 30000}, // >99.99% can afford the $50 Spectrum plan
		{Q: 0.02, Income: 36000},
		{Q: 0.30, Income: 52000},
		{Q: 0.642, Income: 66450}, // ≈3.0M locations below the Lifeline threshold
		{Q: 0.745, Income: 72000}, // 74.5% below the $120 Starlink threshold
		{Q: 0.90, Income: 89000},
		{Q: 0.97, Income: 112000},
		{Q: 1.0, Income: 230000},
	}
}

// IncomeQuantile evaluates the anchored quantile function at q,
// interpolating log-linearly in income between anchors.
func IncomeQuantile(anchors []QuantileAnchor, q float64) (float64, error) {
	if err := validateAnchors(anchors); err != nil {
		return 0, err
	}
	if q <= anchors[0].Q {
		return anchors[0].Income, nil
	}
	last := anchors[len(anchors)-1]
	if q >= last.Q {
		return last.Income, nil
	}
	i := sort.Search(len(anchors), func(i int) bool { return anchors[i].Q > q }) - 1
	a, b := anchors[i], anchors[i+1]
	t := (q - a.Q) / (b.Q - a.Q)
	return math.Exp(math.Log(a.Income) + t*(math.Log(b.Income)-math.Log(a.Income))), nil
}

// validateAnchors checks the anchor rules IncomeQuantile states.
func validateAnchors(anchors []QuantileAnchor) error {
	if len(anchors) < 2 {
		return fmt.Errorf("census: need at least 2 anchors, got %d", len(anchors))
	}
	for i := 1; i < len(anchors); i++ {
		if anchors[i].Q <= anchors[i-1].Q {
			return fmt.Errorf("census: anchors not strictly increasing in Q at %d", i)
		}
		if anchors[i].Income <= anchors[i-1].Income {
			return fmt.Errorf("census: anchors not strictly increasing in income at %d", i)
		}
	}
	return nil
}

// quantileWalk evaluates IncomeQuantile over one set of anchors at a
// rising sequence of quantiles: the anchors are validated and their
// logs taken once, and the anchor segment is walked forward instead of
// searched per call. Each value is the same float expression
// IncomeQuantile evaluates, so the results are identical bit for bit.
type quantileWalk struct {
	anchors []QuantileAnchor
	logs    []float64
	seg     int  // the last segment found; its start Q is at most the next q
	search  bool // a NaN Q breaks the walk's ordering: search every q
}

func newQuantileWalk(anchors []QuantileAnchor) (*quantileWalk, error) {
	if err := validateAnchors(anchors); err != nil {
		return nil, err
	}
	w := &quantileWalk{anchors: anchors, logs: make([]float64, len(anchors))}
	for i, a := range anchors {
		w.logs[i] = math.Log(a.Income)
		w.search = w.search || math.IsNaN(a.Q)
	}
	return w, nil
}

// at returns IncomeQuantile(anchors, q). A q below the segment of the
// previous call (or NaN) is searched for as IncomeQuantile does.
func (w *quantileWalk) at(q float64) float64 {
	a := w.anchors
	if q <= a[0].Q {
		return a[0].Income
	}
	if last := a[len(a)-1]; q >= last.Q {
		return last.Income
	}
	i := w.seg
	if w.search || !(a[i].Q <= q) {
		i = sort.Search(len(a), func(i int) bool { return a[i].Q > q }) - 1
	} else {
		// q < last.Q, so the walk stops by the final segment.
		for a[i+1].Q <= q {
			i++
		}
	}
	w.seg = i
	t := (q - a[i].Q) / (a[i+1].Q - a[i].Q)
	return math.Exp(w.logs[i] + t*(w.logs[i+1]-w.logs[i]))
}

// CountyIncome is one county's ACS-style record.
type CountyIncome struct {
	FIPS                     string
	StateAbbr                string
	MedianHouseholdIncomeUSD float64
	// Weight is the number of un(der)served locations attributed to
	// the county, carried for weighted statistics.
	Weight float64
}

// Table holds per-county incomes keyed by FIPS.
type Table struct {
	ordered []CountyIncome // ascending by income

	// byFIPS serves Lookup. NewTable fills it. A table that
	// AssignIncomes orders itself gets it on the first Lookup instead,
	// since generation never looks a county up.
	index  sync.Once
	byFIPS map[string]CountyIncome
}

// NewTable builds a Table from records.
func NewTable(records []CountyIncome) *Table {
	t := &Table{byFIPS: make(map[string]CountyIncome, len(records))}
	t.ordered = make([]CountyIncome, len(records))
	copy(t.ordered, records)
	slices.SortFunc(t.ordered, func(a, b CountyIncome) int {
		if a.MedianHouseholdIncomeUSD != b.MedianHouseholdIncomeUSD {
			return less(a.MedianHouseholdIncomeUSD < b.MedianHouseholdIncomeUSD)
		}
		return strings.Compare(a.FIPS, b.FIPS)
	})
	for _, r := range records {
		t.byFIPS[r.FIPS] = r
	}
	return t
}

// less turns a strict-less test into a comparator result. The
// comparators of NewTable and AssignIncomes are negative exactly when
// the tests' reference sort.Slice less functions report less, NaN
// included. slices.SortFunc only asks whether a result is negative and
// runs the same pattern-defeating quicksort as sort.Slice, so every
// input, ties and all, sorts into the reference order.
func less(lt bool) int {
	if lt {
		return -1
	}
	return 1
}

// Lookup returns the county record for a FIPS code.
func (t *Table) Lookup(fips string) (CountyIncome, bool) {
	t.index.Do(func() {
		if t.byFIPS != nil {
			return
		}
		// Only AssignIncomes leaves the index empty, and its FIPS codes
		// are unique, so the build order cannot matter.
		t.byFIPS = make(map[string]CountyIncome, len(t.ordered))
		for _, r := range t.ordered {
			t.byFIPS[r.FIPS] = r
		}
	})
	r, ok := t.byFIPS[fips]
	return r, ok
}

// Counties returns the records in ascending income order.
func (t *Table) Counties() []CountyIncome {
	out := make([]CountyIncome, len(t.ordered))
	copy(out, t.ordered)
	return out
}

// CountyWeight is the input to AssignIncomes: a county and its
// un(der)served location count.
type CountyWeight struct {
	FIPS      string
	StateAbbr string
	Weight    float64
	// PovertyRank orders counties from poorest to richest before income
	// assignment; the generators use a seed-keyed per-county hash
	// jitter, independent of geography.
	PovertyRank float64
}

// AssignIncomes distributes incomes over counties so the
// location-weighted income CDF reproduces the anchored quantile
// function exactly (up to county granularity): counties are ordered by
// PovertyRank and each receives the income at its cumulative-weight
// midpoint quantile.
func AssignIncomes(weights []CountyWeight, anchors []QuantileAnchor) (*Table, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("census: no county weights")
	}
	ascending := fipsAscending(weights)
	keys := make([]rankKey, len(weights))
	for i, w := range weights {
		keys[i] = rankKey{key: w.PovertyRank, idx: int32(i)}
	}
	sortRows(keys, weights, ascending)
	total := 0.0
	for _, k := range keys {
		w := weights[k.idx]
		if w.Weight < 0 {
			return nil, fmt.Errorf("census: negative weight for county %s", w.FIPS)
		}
		total += w.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("census: zero total weight")
	}
	walk, err := newQuantileWalk(anchors)
	if err != nil {
		return nil, err
	}
	// The midpoints rise with the poverty order (weights are
	// nonnegative), which is what lets the walk run forward. Each key
	// becomes the county's income, ACS-style rounded.
	cum := 0.0
	for j, k := range keys {
		w := weights[k.idx].Weight
		mid := (cum + w/2) / total
		cum += w
		keys[j].key = math.Round(walk.at(mid)/50) * 50
	}
	if !ascending {
		// Repeated codes are possible here, and NewTable's index keeps
		// the last record of a code in poverty order.
		return NewTable(incomeRecords(weights, keys)), nil
	}
	sortRows(keys, weights, ascending)
	return &Table{ordered: incomeRecords(weights, keys)}, nil
}

// rankKey is one row of AssignIncomes' sort columns: a poverty rank or
// an income, and the county's input index.
type rankKey struct {
	key float64
	idx int32
}

// sortRows orders rows by key, breaking ties by FIPS. Both sorts of
// AssignIncomes run over this pointer-free column. When the FIPS codes
// strictly ascend (ascending), as both generators emit them, the input
// index orders exactly as the FIPS does, so the tie-break compares
// integers instead of strings. Every comparison then returns what the
// struct comparators AssignIncomes and NewTable first used return for
// the same pair, so pdqsort permutes identically, ties and NaN keys
// included.
func sortRows(rows []rankKey, weights []CountyWeight, ascending bool) {
	if ascending {
		slices.SortFunc(rows, func(a, b rankKey) int {
			if a.key != b.key {
				return less(a.key < b.key)
			}
			return cmp.Compare(a.idx, b.idx)
		})
		return
	}
	slices.SortFunc(rows, func(a, b rankKey) int {
		if a.key != b.key {
			return less(a.key < b.key)
		}
		return strings.Compare(weights[a.idx].FIPS, weights[b.idx].FIPS)
	})
}

// incomeRecords gathers the records of (income, input index) rows.
func incomeRecords(weights []CountyWeight, rows []rankKey) []CountyIncome {
	out := make([]CountyIncome, len(rows))
	for j, r := range rows {
		w := weights[r.idx]
		out[j] = CountyIncome{
			FIPS:                     w.FIPS,
			StateAbbr:                w.StateAbbr,
			MedianHouseholdIncomeUSD: r.key,
			Weight:                   w.Weight,
		}
	}
	return out
}

// fipsAscending reports whether the county codes strictly ascend.
func fipsAscending(weights []CountyWeight) bool {
	for i := 1; i < len(weights); i++ {
		if weights[i-1].FIPS >= weights[i].FIPS {
			return false
		}
	}
	return true
}

// csvHeader is the ACS-style county income schema.
var csvHeader = []string{"county_fips", "state", "median_household_income_usd", "unserved_locations"}

// WriteCSV writes the table in the ACS-style schema, ordered by FIPS.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("census: writing header: %w", err)
	}
	recs := t.Counties()
	sort.Slice(recs, func(i, j int) bool { return recs[i].FIPS < recs[j].FIPS })
	for _, r := range recs {
		row := []string{
			r.FIPS,
			r.StateAbbr,
			strconv.FormatFloat(r.MedianHouseholdIncomeUSD, 'f', 0, 64),
			strconv.FormatFloat(r.Weight, 'f', 0, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("census: writing county %s: %w", r.FIPS, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table written by WriteCSV, enforcing the writer's
// invariants: digit-checked county FIPS codes with no duplicates,
// positive incomes, nonnegative weights.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("census: reading header: %w", err)
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("census: header field %d is %q, want %q", i, header[i], h)
		}
	}
	var recs []CountyIncome
	seen := make(map[string]int)
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("census: line %d: %w", line, err)
		}
		if !validFIPS(row[0]) {
			return nil, fmt.Errorf("census: line %d: bad county_fips %q: want 5 digits", line, row[0])
		}
		if prev, dup := seen[row[0]]; dup {
			return nil, fmt.Errorf("census: line %d: duplicate county_fips %q (first at line %d)", line, row[0], prev)
		}
		seen[row[0]] = line
		income, err := strconv.ParseFloat(row[2], 64)
		if err != nil || income <= 0 {
			return nil, fmt.Errorf("census: line %d: bad income %q", line, row[2])
		}
		weight, err := strconv.ParseFloat(row[3], 64)
		if err != nil || weight < 0 {
			return nil, fmt.Errorf("census: line %d: bad weight %q", line, row[3])
		}
		recs = append(recs, CountyIncome{
			FIPS:                     row[0],
			StateAbbr:                row[1],
			MedianHouseholdIncomeUSD: income,
			Weight:                   weight,
		})
	}
	return NewTable(recs), nil
}

// validFIPS reports whether s is a 5-digit county FIPS code.
func validFIPS(s string) bool {
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
