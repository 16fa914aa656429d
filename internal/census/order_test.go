package census

// Reference pins for the typed comparators: AssignIncomes and NewTable
// must order every input they accept exactly as the sort.Slice less
// functions they replaced, ties included.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// referenceNewTable is NewTable as first written.
func referenceNewTable(records []CountyIncome) []CountyIncome {
	ordered := make([]CountyIncome, len(records))
	copy(ordered, records)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].MedianHouseholdIncomeUSD != ordered[j].MedianHouseholdIncomeUSD {
			return ordered[i].MedianHouseholdIncomeUSD < ordered[j].MedianHouseholdIncomeUSD
		}
		return ordered[i].FIPS < ordered[j].FIPS
	})
	return ordered
}

// referenceAssignIncomes is AssignIncomes as first written, returning
// the records before NewTable orders them.
func referenceAssignIncomes(weights []CountyWeight, anchors []QuantileAnchor) []CountyIncome {
	ws := make([]CountyWeight, len(weights))
	copy(ws, weights)
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].PovertyRank != ws[j].PovertyRank {
			return ws[i].PovertyRank < ws[j].PovertyRank
		}
		return ws[i].FIPS < ws[j].FIPS
	})
	total := 0.0
	for _, w := range ws {
		total += w.Weight
	}
	records := make([]CountyIncome, 0, len(ws))
	cum := 0.0
	for _, w := range ws {
		mid := (cum + w.Weight/2) / total
		cum += w.Weight
		income, err := IncomeQuantile(anchors, mid)
		if err != nil {
			panic(err)
		}
		records = append(records, CountyIncome{
			FIPS:                     w.FIPS,
			StateAbbr:                w.StateAbbr,
			MedianHouseholdIncomeUSD: math.Round(income/50) * 50,
			Weight:                   w.Weight,
		})
	}
	return records
}

// randomWeights draws n counties with heavily tied poverty ranks (few
// distinct values) in shuffled order. With dupFIPS, codes repeat too,
// so whole comparator ties occur.
func randomWeights(rng *rand.Rand, n int, dupFIPS bool) []CountyWeight {
	ws := make([]CountyWeight, n)
	codes := n
	if dupFIPS {
		codes = 1 + n/4
	}
	for i := range ws {
		ws[i] = CountyWeight{
			FIPS:        fmt.Sprintf("%05d", rng.Intn(codes)*7%100000),
			StateAbbr:   fmt.Sprintf("S%d", i),
			Weight:      float64(1 + rng.Intn(50)),
			PovertyRank: float64(rng.Intn(4)) / 4,
		}
		if !dupFIPS {
			ws[i].FIPS = fmt.Sprintf("%05d", i*13%100000)
		}
	}
	rng.Shuffle(n, func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
	return ws
}

// Shuffled or repeated codes are an error naming the first pair out of
// order; input that happens to ascend matches the reference.
func TestAssignIncomesRejectsUnorderedCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		ws := randomWeights(rng, n, trial%4 == 0)
		bad := 1
		for bad < n && ws[bad-1].FIPS < ws[bad].FIPS {
			bad++
		}
		table, err := AssignIncomes(ws, DefaultIncomeAnchors())
		if bad == n {
			if err != nil {
				t.Fatalf("trial %d (%d counties): ascending codes rejected: %v", trial, n, err)
			}
			want := referenceNewTable(referenceAssignIncomes(ws, DefaultIncomeAnchors()))
			if got := table.Counties(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%d counties): AssignIncomes order differs from the reference", trial, n)
			}
			continue
		}
		want := fmt.Sprintf("%q at %d follows %q", ws[bad].FIPS, bad, ws[bad-1].FIPS)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("trial %d (%d counties): err = %v, want mention of %s", trial, n, err, want)
		}
	}
}

func TestNewTableMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		recs := make([]CountyIncome, n)
		codes := n
		if trial%4 == 0 {
			codes = 1 + n/4 // repeated codes: whole comparator ties
		}
		for i := range recs {
			recs[i] = CountyIncome{
				FIPS:                     fmt.Sprintf("%05d", rng.Intn(codes)),
				StateAbbr:                fmt.Sprintf("S%d", i),
				MedianHouseholdIncomeUSD: float64(30000 + 50*rng.Intn(5)),
				Weight:                   float64(i),
			}
		}
		if got, want := NewTable(recs).Counties(), referenceNewTable(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d records): NewTable order differs from the reference", trial, n)
		}
	}
}

// The generators' input, strictly ascending FIPS, takes the integer
// tie-break; it must order exactly as the reference too, NaN ranks
// included.
func TestAssignIncomesAscendingFIPSMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		ws := randomWeights(rng, n, false)
		sort.Slice(ws, func(i, j int) bool { return ws[i].FIPS < ws[j].FIPS })
		if trial%5 == 0 {
			ws[rng.Intn(n)].PovertyRank = math.NaN()
		}
		table, err := AssignIncomes(ws, DefaultIncomeAnchors())
		if err != nil {
			t.Fatal(err)
		}
		want := referenceNewTable(referenceAssignIncomes(ws, DefaultIncomeAnchors()))
		if got := table.Counties(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d counties): AssignIncomes order differs from the reference", trial, n)
		}
		for _, r := range want {
			if got, ok := table.Lookup(r.FIPS); !ok || got != r {
				t.Fatalf("trial %d: Lookup(%s) = %+v, %v, want %+v", trial, r.FIPS, got, ok, r)
			}
		}
	}
}

// From radixMin rows on, ascending codes take the radix sort; it must
// order exactly as the reference too: −0 tying +0, NaN ranks (which
// keep the comparator sort), heavily repeated ranks, and incomes
// repeated across many counties.
func TestAssignIncomesRadixMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 60; trial++ {
		n := radixMin + rng.Intn(3*radixMin)
		if trial == 0 {
			n = radixMin
		}
		ws := make([]CountyWeight, n)
		for i := range ws {
			ws[i] = CountyWeight{
				FIPS:      fmt.Sprintf("%05d", 3*i+1),
				StateAbbr: fmt.Sprintf("S%d", i),
				Weight:    float64(1 + rng.Intn(50)),
			}
			switch trial % 4 {
			case 0: // signed zeros among a few repeated ranks
				ws[i].PovertyRank = []float64{0, negZero, 0.5, -0.25}[rng.Intn(4)]
			case 1: // two ranks only: long runs of ties
				ws[i].PovertyRank = float64(rng.Intn(2))
			case 2: // the generators' jitter: steps of 1e-4
				ws[i].PovertyRank = float64(rng.Intn(10000)) / 10000
			default: // wide magnitudes and signs
				ws[i].PovertyRank = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		if trial%5 == 4 {
			ws[rng.Intn(n)].PovertyRank = math.NaN()
		}
		table, err := AssignIncomes(ws, DefaultIncomeAnchors())
		if err != nil {
			t.Fatal(err)
		}
		want := referenceNewTable(referenceAssignIncomes(ws, DefaultIncomeAnchors()))
		if got := table.Counties(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d counties): AssignIncomes order differs from the reference", trial, n)
		}
	}
}

// radixRows orders rows by (key, idx) exactly as a comparator sort
// does, −0 and +0 tied, and refuses a NaN key without touching rows.
func TestRadixRowsMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := []float64{math.Inf(-1), -1e300, -2, -1, -5e-324, math.Copysign(0, -1), 0, 5e-324, 1, 2, 1e300, math.Inf(1)}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(600)
		rows := make([]rankKey, n)
		for i, p := range rng.Perm(n) {
			rows[i] = rankKey{key: values[rng.Intn(len(values))], idx: int32(p)}
		}
		want := append([]rankKey(nil), rows...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].key != want[j].key {
				return want[i].key < want[j].key
			}
			return want[i].idx < want[j].idx
		})
		got := append([]rankKey(nil), rows...)
		scratch := make([]radixRow, 2*n)
		if !radixRows(got, scratch) {
			t.Fatalf("trial %d: radixRows refused keys without NaN", trial)
		}
		for i := range want {
			if got[i].idx != want[i].idx || math.Float64bits(got[i].key) != math.Float64bits(want[i].key) {
				t.Fatalf("trial %d: row %d = %+v, comparator gives %+v", trial, i, got[i], want[i])
			}
		}
		rows[rng.Intn(n)].key = math.NaN()
		before := append([]rankKey(nil), rows...)
		if radixRows(rows, scratch) || !reflect.DeepEqual(keyBits(rows), keyBits(before)) {
			t.Fatalf("trial %d: radixRows sorted or changed rows with a NaN key", trial)
		}
	}
}

// keyBits is rows with each key as its bits, so NaN compares equal to
// itself.
func keyBits(rows []rankKey) [][2]uint64 {
	out := make([][2]uint64, len(rows))
	for i, r := range rows {
		out[i] = [2]uint64{math.Float64bits(r.key), uint64(r.idx)}
	}
	return out
}

// quantileWalk gives IncomeQuantile's bits for rising, falling and NaN
// quantiles, over the default anchors and anchors with a NaN Q.
func TestQuantileWalkMatchesIncomeQuantile(t *testing.T) {
	nanQ := []QuantileAnchor{{Q: 0, Income: 1}, {Q: math.NaN(), Income: 2}, {Q: 0.5, Income: 3}, {Q: 1, Income: 4}}
	rng := rand.New(rand.NewSource(6))
	for _, anchors := range [][]QuantileAnchor{DefaultIncomeAnchors(), nanQ} {
		w, err := newQuantileWalk(anchors)
		if err != nil {
			t.Fatal(err)
		}
		qs := []float64{-1, 0, 0.00008, 0.02, 0.3, 0.3, 0.97, 1, 2, 0.5, 0.1}
		for i := 0; i < 2000; i++ {
			qs = append(qs, rng.Float64())
		}
		for i := 0; i < 2000; i++ {
			qs = append(qs, float64(i)/2000)
		}
		for _, q := range qs {
			want, err := IncomeQuantile(anchors, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.at(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("walk at %v = %v, IncomeQuantile gives %v", q, got, want)
			}
		}
	}
	if _, err := newQuantileWalk(DefaultIncomeAnchors()[:1]); err == nil {
		t.Error("one anchor accepted")
	}
}

// The index an AssignIncomes table builds on first Lookup is built
// once, whichever goroutines look up first.
func TestLookupConcurrentFirstCalls(t *testing.T) {
	ws := randomWeights(rand.New(rand.NewSource(7)), 300, false)
	sort.Slice(ws, func(i, j int) bool { return ws[i].FIPS < ws[j].FIPS })
	table, err := AssignIncomes(ws, DefaultIncomeAnchors())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range ws {
				if r, ok := table.Lookup(w.FIPS); !ok || r.FIPS != w.FIPS {
					t.Errorf("Lookup(%s) = %+v, %v", w.FIPS, r, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
