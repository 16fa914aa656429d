package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// packKeys encodes keys as the little-endian byte string
// FuzzSortUint64 decodes.
func packKeys(keys []uint64) []byte {
	b := make([]byte, 0, 8*len(keys))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	return b
}

// sortSeeds are the shapes SortUint64 must handle: empty, short, all
// equal, keys differing only in the top digit, and the packed
// generation keys ((locations complement, rank) and (row, site)), and
// keys that differ in every digit.
func sortSeeds() [][]uint64 {
	short := []uint64{5, 3, math.MaxUint64, 0, 3, 1 << 40}
	equal := make([]uint64, 100)
	for i := range equal {
		equal[i] = 0xdead_beef_0000_0042
	}
	top := make([]uint64, 200)
	for i := range top {
		top[i] = uint64(i*37%200)<<55 | 0x1234
	}
	locsRank := make([]uint64, 500)
	rowSite := make([]uint64, 500)
	mixed := make([]uint64, 500)
	for i := range locsRank {
		locs := 1 + (i*7919)%2500
		locsRank[i] = uint64(math.MaxInt32-locs)<<32 | uint64(i)
		rowSite[i] = uint64((i*104729)%47365)<<32 | uint64(i)
		mixed[i] = uint64(i%300) * 0x9e3779b97f4a7c15
	}
	return [][]uint64{nil, short, equal, top, locsRank, rowSite, mixed}
}

func FuzzSortUint64(f *testing.F) {
	for _, keys := range sortSeeds() {
		f.Add(packKeys(keys))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		SortUint64(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("SortUint64 of %d keys differs from slices.Sort", len(keys))
		}
	})
}
