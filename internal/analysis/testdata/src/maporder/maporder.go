// Testdata for the maporder analyzer: map iteration order must not
// leak into slices or output streams; the collect-sort-iterate pattern
// passes automatically, and the sort must sit on every path from the
// loop to the function exit (paths that discard the slice — error
// returns, panics — are harmless). Order-dependent value flows (float
// accumulation, selections) are maptaint's business, not this rule's.
package maporder

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

var errBlank = errors.New("blank key")

func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside a map range records random iteration order"
	}
	return keys
}

func appendThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: sorted right below
	}
	sort.Strings(keys)
	return keys
}

func appendSortedConditionally(m map[string]int, pre bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // want "append to keys inside a map range records random iteration order"
	}
	if pre {
		sort.Strings(keys) // the else path returns keys unsorted
	}
	return keys
}

func appendWithErrorPath(m map[string]int) ([]string, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		if k == "" {
			return nil, errBlank // ok: this path discards keys, order never escapes
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

func appendWithPanicPath(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if k == "" {
			panic("blank key") // ok: unwinding discards keys
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeInLoop(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k) // want "WriteString inside a map range writes in random iteration order"
	}
}

// table stands in for report.Table: rows come out in AddRow order.
type table struct{ rows [][]string }

func (t *table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

func addRowInLoop(m map[string]int, t *table) {
	for k := range m {
		t.AddRow(k) // want "AddRow inside a map range writes in random iteration order"
	}
}

func printInLoop(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println inside a map range writes in random iteration order"
	}
}

func sumInts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // ok: value flows belong to maptaint; integer sums are exact anyway
	}
	return n
}

func loopLocal(m map[string][]int) int {
	longest := 0
	for _, vs := range m {
		var scratch []int
		scratch = append(scratch, vs...) // ok: loop-local scratch, discarded per iteration
		if len(scratch) > longest {
			longest = len(scratch)
		}
	}
	return longest
}
