package stats

import "slices"

// radixBits is the digit width of SortUint64: 2^11 counters fit in
// 16 KB, and six digits cover a uint64.
const radixBits = 11

// SortUint64 sorts keys in ascending order. It is an LSD radix sort on
// 11-bit digits that skips every digit all keys share, so packed keys
// whose high fields are narrow (a row index above a site index, a
// location-count complement above a rank) cost a few linear passes
// instead of a comparison sort. Equal keys are indistinguishable, so
// the result is the one slices.Sort gives. Short inputs, where the
// passes and the scratch column would dominate, use slices.Sort.
func SortUint64(keys []uint64) {
	if len(keys) < 64 {
		slices.Sort(keys)
		return
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	const mask = 1<<radixBits - 1
	src, dst := keys, []uint64(nil)
	for shift := 0; shift < 64; shift += radixBits {
		if diff>>shift&mask == 0 {
			continue
		}
		if dst == nil {
			dst = make([]uint64, len(keys))
		}
		var next [1 << radixBits]int
		for _, k := range src {
			next[k>>shift&mask]++
		}
		at := 0
		for d, n := range next {
			next[d] = at
			at += n
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[next[d]] = k
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
