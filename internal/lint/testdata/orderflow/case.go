// Corpus for the orderflow rule: map iteration order that crosses a
// function boundary — through a return value or a struct field — and
// then reaches a writer. The intra-function maporder rule
// cannot see any of the positives here from the sink side.
package ordercase

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Keys builds a slice in map iteration order and returns it: the
// carrier every positive below consumes.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys fixes the order before returning: consuming it is fine.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Positive: the unsorted return value reaches a writer here, a
// function with no map range in sight.
func Dump(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, Keys(m))
}

// Negative: the producer sorted.
func DumpSorted(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, SortedKeys(m))
}

// Negative: the sink sorts the carrier before writing.
func DumpSortedHere(w io.Writer, m map[string]int) {
	ks := Keys(m)
	sort.Strings(ks)
	fmt.Fprintln(w, ks)
}

// Report carries map order in a struct field. maporder's escape check
// only models appends to plain identifiers, so the selector append in
// Collect is provably invisible to it.
type Report struct {
	names []string
}

// Collect stores map iteration order in r.names.
func (r *Report) Collect(m map[string]int) {
	for k := range m {
		r.names = append(r.names, k)
	}
}

// Positive: a different method writes the field.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintln(w, r.names)
}

// Positive: the order survives strings.Join, a []byte conversion, and
// an io.Writer method call.
func (r *Report) Raw(w io.Writer) {
	w.Write([]byte(strings.Join(r.names, ",")))
}

// Negative: sorting the field before the write clears it locally.
func (r *Report) WriteSorted(w io.Writer) {
	sort.Strings(r.names)
	fmt.Fprintln(w, r.names)
}

// Suppressed positive.
func (r *Report) WriteUnordered(w io.Writer) {
	//fairlint:allow orderflow corpus demo output whose order is irrelevant
	fmt.Fprintln(w, r.names)
}
