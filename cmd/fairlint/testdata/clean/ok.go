// A fairlint-clean fixture: deterministic, sorted, sentinel-correct,
// with parameter-seeded randomness.
package clean

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
)

var ErrEmpty = errors.New("clean: empty input")

func render(w io.Writer, m map[string]int) error {
	if len(m) == 0 {
		return fmt.Errorf("render: %w", ErrEmpty)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s=%d\n", k, m[k]); err != nil {
			return err
		}
	}
	return nil
}

// Draw samples from a caller-seeded generator.
func Draw(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}
