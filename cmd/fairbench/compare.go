package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench-trajectory gate (-compare): diff two -bench-json documents and
// fail when a case's ns_per_op grew past its threshold. The default is
// deliberately generous — these are wall-clock numbers from shared CI
// runners, so the gate is meant to catch step-change regressions (a 2×
// slowdown from an accidental O(n²) path), not single-digit noise.

// defaultThreshold is the ns_per_op ratio (new/old) above which a case
// counts as regressed unless overridden per case.
const defaultThreshold = 1.5

// compareOptions configures runCompare.
type compareOptions struct {
	// Threshold applies to every case without an override.
	Threshold float64
	// CaseThresholds overrides the threshold per benchmark name.
	CaseThresholds map[string]float64
	// WarnOnly reports ns_per_op regressions but returns nil so CI can
	// observe the trajectory before enforcing it. Alloc regressions are
	// NOT covered: allocation counts are deterministic on a given Go
	// version, so they fail the gate even under WarnOnly.
	WarnOnly bool
	// MaxAllocGrowth is the allowed absolute growth in allocs_per_op.
	// The figure is fractional, and per-run setup amortized over a
	// benchmark's N moves it by a small fraction of an allocation; the
	// default absorbs that while any new per-op allocation fails.
	// Negative disables the allocation gate, bytes_per_op included.
	MaxAllocGrowth float64
}

// Allocation budgets for -compare: a tenth of an allocation and eight
// bytes per op, both below the cost of one real allocation.
const (
	defaultMaxAllocGrowth = 0.1
	maxByteGrowth         = 8
)

// parseCaseThresholds parses "name=ratio,name=ratio".
func parseCaseThresholds(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("case threshold %q: want name=ratio", part)
		}
		ratio, err := strconv.ParseFloat(val, 64)
		if err != nil || ratio <= 0 {
			return nil, fmt.Errorf("case threshold %q: bad ratio %q", part, val)
		}
		out[name] = ratio
	}
	return out, nil
}

// loadBenchDoc reads and validates one -bench-json document.
func loadBenchDoc(path string) (*benchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != "fairbench-bench/v1" {
		return nil, fmt.Errorf("%s: schema %q is not a fairbench bench document", path, doc.Schema)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// runCompare diffs old against new and returns a non-nil error (the
// nonzero exit) when any case regressed and WarnOnly is off. Cases
// missing from the new document also fail — a silently dropped
// benchmark is how trajectories go dark. allocs_per_op and bytes_per_op
// are gated separately and strictly: allocation figures don't wobble
// with runner load the way wall-clock does, so growth past
// MaxAllocGrowth or maxByteGrowth fails even under WarnOnly — but only
// when both documents come from the same Go version (the compiler's
// escape analysis moves counts across releases).
func runCompare(stdout io.Writer, oldPath, newPath string, o compareOptions) error {
	oldDoc, err := loadBenchDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadBenchDoc(newPath)
	if err != nil {
		return err
	}
	newByName := map[string]benchResult{}
	for _, b := range newDoc.Benchmarks {
		newByName[b.Name] = b
	}
	gateAllocs := o.MaxAllocGrowth >= 0 && oldDoc.GoVersion == newDoc.GoVersion
	if o.MaxAllocGrowth >= 0 && !gateAllocs {
		fmt.Fprintf(stdout, "alloc gate off: baseline is %s, new document is %s (counts not comparable)\n",
			oldDoc.GoVersion, newDoc.GoVersion)
	}

	var regressed, missing, allocGrew []string
	fmt.Fprintf(stdout, "bench compare: %s -> %s (threshold %.2fx)\n", oldPath, newPath, o.Threshold)
	for _, old := range oldDoc.Benchmarks {
		nw, ok := newByName[old.Name]
		delete(newByName, old.Name)
		if !ok {
			missing = append(missing, old.Name)
			fmt.Fprintf(stdout, "  MISSING %-28s dropped from new document\n", old.Name)
			continue
		}
		limit := o.Threshold
		if t, ok := o.CaseThresholds[old.Name]; ok {
			limit = t
		}
		ratio := 0.0
		if old.NsPerOp > 0 {
			ratio = nw.NsPerOp / old.NsPerOp
		}
		verdict := "ok"
		if ratio > limit {
			verdict = "REGRESSED"
			regressed = append(regressed, old.Name)
		} else if ratio > 0 && ratio < 1/limit {
			verdict = "improved"
		}
		fmt.Fprintf(stdout, "  %-9s %-28s %12.0f -> %12.0f ns/op  %5.2fx (limit %.2fx)\n",
			verdict, old.Name, old.NsPerOp, nw.NsPerOp, ratio, limit)
		if !gateAllocs {
			continue
		}
		allocs := nw.AllocsPerOp > old.AllocsPerOp+o.MaxAllocGrowth
		if allocs {
			fmt.Fprintf(stdout, "  ALLOCS    %-28s %12.3f -> %12.3f allocs/op (limit +%g)\n",
				old.Name, old.AllocsPerOp, nw.AllocsPerOp, o.MaxAllocGrowth)
		}
		bytes := nw.BytesPerOp > old.BytesPerOp+maxByteGrowth
		if bytes {
			fmt.Fprintf(stdout, "  BYTES     %-28s %12.1f -> %12.1f B/op (limit +%d)\n",
				old.Name, old.BytesPerOp, nw.BytesPerOp, maxByteGrowth)
		}
		if allocs || bytes {
			allocGrew = append(allocGrew, old.Name)
		}
	}
	extra := make([]string, 0, len(newByName))
	for name := range newByName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(stdout, "  new       %-28s (no baseline yet)\n", name)
	}

	if len(regressed) == 0 && len(missing) == 0 && len(allocGrew) == 0 {
		fmt.Fprintf(stdout, "no regressions across %d cases\n", len(oldDoc.Benchmarks))
		return nil
	}
	msg := fmt.Sprintf("%d regressed, %d missing, %d alloc growth of %d cases",
		len(regressed), len(missing), len(allocGrew), len(oldDoc.Benchmarks))
	fmt.Fprintln(stdout, msg)
	if len(allocGrew) > 0 {
		// Deterministic on this Go version: warn-only never applies.
		return fmt.Errorf("alloc regression: %s allocate more per op than the baseline allows",
			strings.Join(allocGrew, ", "))
	}
	if o.WarnOnly {
		fmt.Fprintln(stdout, "(warn-only: not failing the run)")
		return nil
	}
	return fmt.Errorf("bench regression: %s (regressed: %s)",
		msg, strings.Join(append(regressed, missing...), ", "))
}
