package metric

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds metric descriptors by name. A Registry is safe for
// concurrent use. The zero value is empty and ready to use; most callers
// want Standard(), which is pre-populated with the metrics the paper
// discusses.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Descriptor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]Descriptor)}
}

// Register adds or replaces a descriptor. It returns an error if the
// descriptor fails validation.
func (r *Registry) Register(d Descriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = make(map[string]Descriptor)
	}
	r.entries[d.Name] = d
	return nil
}

// MustRegister is Register but panics on error; for package init paths.
func (r *Registry) MustRegister(d Descriptor) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Lookup returns the descriptor for name.
func (r *Registry) Lookup(name string) (Descriptor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.entries[name]
	return d, ok
}

// MustLookup returns the descriptor for name, panicking if absent. Use
// only for the standard names defined in this package.
func (r *Registry) MustLookup(name string) Descriptor {
	d, ok := r.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("metric: no descriptor registered for %q", name))
	}
	return d
}

// List returns all descriptors sorted by name.
func (r *Registry) List() []Descriptor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Descriptor, 0, len(r.entries))
	for _, d := range r.entries {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Costs returns registered cost metrics sorted by name.
func (r *Registry) Costs() []Descriptor { return r.filter(Cost) }

func (r *Registry) filter(k Kind) []Descriptor {
	all := r.List()
	out := all[:0]
	for _, d := range all {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

// Standard metric names, usable with Standard().MustLookup.
const (
	// Cost metrics (paper Table 1 and §3.4).
	MetricPower        = "power"          // watts — passes all three principles
	MetricHeat         = "heat"           // BTU/h — heat dissipation
	MetricDieArea      = "die-area"       // mm² of silicon
	MetricCores        = "cpu-cores"      // number of CPU cores
	MetricLUTs         = "fpga-luts"      // number of FPGA LUTs
	MetricMemory       = "memory"         // MB of memory
	MetricRackSpace    = "rack-space"     // rack units (qualified CI)
	MetricTCO          = "tco"            // $ — context-dependent
	MetricPrice        = "hardware-price" // $ — context-dependent
	MetricCarbon       = "carbon"         // kgCO2e — not yet quantifiable
	MetricProgComplex  = "programming-complexity"
	MetricEnergyPerBit = "energy-per-bit" // J/b — derived efficiency cost

	// Performance metrics.
	MetricThroughputBps = "throughput-bps"
	MetricThroughputPps = "throughput-pps"
	MetricLatency       = "latency"
	MetricJFI           = "jfi" // Jain's fairness index [13]
	MetricTPS           = "transactions-per-second"
)

var (
	standardOnce sync.Once
	standard     *Registry
)

// Standard returns the shared registry pre-populated with the metrics
// the paper discusses in §3 and §4, with their Table 1 classification.
// Callers must not mutate descriptors obtained from it; registering
// additional metrics is allowed.
func Standard() *Registry {
	standardOnce.Do(func() {
		standard = NewRegistry()
		for _, d := range standardDescriptors() {
			standard.MustRegister(d)
		}
	})
	return standard
}

func standardDescriptors() []Descriptor {
	allGood := Properties{ContextIndependent: true, Quantifiable: true, EndToEnd: true}
	return []Descriptor{
		{
			Name: MetricPower, DisplayName: "Power draw", Kind: Cost,
			Unit: Watt, Direction: LowerIsBetter, Props: allGood, Scalable: true,
			Notes: "Meets all three requirements: context independent, measurable with a variety of tools, and composable for end-to-end measurement (§3.4).",
		},
		{
			Name: MetricHeat, DisplayName: "Heat dissipation", Kind: Cost,
			Unit: BTUPerHour, Direction: LowerIsBetter, Props: allGood, Scalable: true,
			Notes: "Context-independent cost metric (Table 1); same dimension as power.",
		},
		{
			Name: MetricDieArea, DisplayName: "Silicon die area", Kind: Cost,
			Unit: SquareMillimetre, Direction: LowerIsBetter,
			Props: Properties{ContextIndependent: true, Quantifiable: true, EndToEnd: true,
				Qualification: "Comparable across devices only at comparable process nodes."},
			Scalable: true,
			Notes:    "Context-independent (Table 1); adds up across dies.",
		},
		{
			Name: MetricCores, DisplayName: "Number of CPU cores", Kind: Cost,
			Unit: Core, Direction: LowerIsBetter,
			Props:    Properties{ContextIndependent: true, Quantifiable: true, EndToEnd: false},
			Scalable: true,
			Notes:    "Context-independent and quantifiable but not end-to-end: one cannot add up cores and LUTs on different devices (§3.4).",
		},
		{
			Name: MetricLUTs, DisplayName: "Number of FPGA LUTs", Kind: Cost,
			Unit: LUT, Direction: LowerIsBetter,
			Props:    Properties{ContextIndependent: true, Quantifiable: true, EndToEnd: false},
			Scalable: true,
			Notes:    "Same failure mode as CPU cores: cannot be measured for a CPU-only system (§3.3).",
		},
		{
			Name: MetricMemory, DisplayName: "Memory usage", Kind: Cost,
			Unit: Megabyte, Direction: LowerIsBetter,
			Props:    Properties{ContextIndependent: true, Quantifiable: true, EndToEnd: true, Qualification: "Memory technologies differ (DRAM vs on-chip SRAM vs TCAM); state the breakdown."},
			Scalable: true,
			Notes:    "Context-independent (Table 1).",
		},
		{
			Name: MetricRackSpace, DisplayName: "Rack space", Kind: Cost,
			Unit: RackUnit, Direction: LowerIsBetter,
			Props: Properties{ContextIndependent: false, Quantifiable: true, EndToEnd: true,
				Qualification: "Standard rack units exist, but enclosure density depends on available power and cooling; report those assumptions to make it comparable (§3.4)."},
			Scalable: true,
			Notes:    "Quantifiable and end-to-end but only conditionally context-independent (§3.4).",
		},
		{
			Name: MetricTCO, DisplayName: "Total cost of ownership", Kind: Cost,
			Unit: USD, Direction: LowerIsBetter,
			Props:    Properties{ContextIndependent: false, Quantifiable: true, EndToEnd: true},
			Scalable: true,
			Notes:    "Arguably the most important purchasing metric, but context-dependent: depends on where and by whom the system is deployed, and varies over time (§3.1). Release the pricing model instead.",
		},
		{
			Name: MetricPrice, DisplayName: "Hardware price", Kind: Cost,
			Unit: USD, Direction: LowerIsBetter,
			Props:    Properties{ContextIndependent: false, Quantifiable: true, EndToEnd: true},
			Scalable: true,
			Notes:    "Context-dependent (Table 1): bulk discounts, time, and confidential pricing.",
		},
		{
			Name: MetricCarbon, DisplayName: "Carbon footprint", Kind: Cost,
			Unit: KgCO2e, Direction: LowerIsBetter,
			Props:    Properties{ContextIndependent: false, Quantifiable: false, EndToEnd: true},
			Scalable: true,
			Notes:    "No commonly agreed-upon measurement approach yet (§3.2); also context-dependent (Table 1 cites ISO 14067).",
		},
		{
			Name: MetricProgComplex, DisplayName: "Programming complexity", Kind: Cost,
			Unit: Scalar, Direction: LowerIsBetter,
			Props:    Properties{ContextIndependent: true, Quantifiable: false, EndToEnd: false},
			Scalable: false,
			Notes:    "Wide-spread disagreement on how to measure task complexity (§3.2); discuss qualitatively alongside quantifiable metrics.",
		},
		{
			Name: MetricEnergyPerBit, DisplayName: "Energy per bit", Kind: Cost,
			Unit: CanonicalUnit(Dim(DimEnergy, 1, DimData, -1)), Direction: LowerIsBetter,
			Props: allGood, Scalable: true,
			Notes: "Derived efficiency metric (power / throughput); context-independent and end-to-end.",
		},

		// Performance metrics.
		{
			Name: MetricThroughputBps, DisplayName: "Throughput", Kind: Performance,
			Unit: GigabitPerSecond, Direction: HigherIsBetter, Props: allGood, Scalable: true,
			Notes: "Report data rates with a mixture of packet sizes (§2).",
		},
		{
			Name: MetricThroughputPps, DisplayName: "Packet rate", Kind: Performance,
			Unit: MegaPacketPerSec, Direction: HigherIsBetter, Props: allGood, Scalable: true,
			Notes: "Report packets per second with minimum-sized packets (§2).",
		},
		{
			Name: MetricLatency, DisplayName: "Latency", Kind: Performance,
			Unit: Microsecond, Direction: LowerIsBetter, Props: allGood, Scalable: false,
			Notes: "Does not scale with horizontal scaling: there is a hard limit on how much latency improves at lower load (§4.3, footnote 4).",
		},
		{
			Name: MetricJFI, DisplayName: "Jain's fairness index", Kind: Performance,
			Unit: Scalar, Direction: HigherIsBetter, Props: allGood, Scalable: false,
			Notes: "Fairness does not scale when the system scales (§4.3, citing Jain et al. [13]).",
		},
		{
			Name: MetricTPS, DisplayName: "Transactions per second", Kind: Performance,
			Unit: TransactionPerSec, Direction: HigherIsBetter, Props: allGood, Scalable: true,
			Notes: "Customary for transactional databases via TPC benchmarks (§2).",
		},
	}
}
