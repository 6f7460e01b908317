// Package metric provides units, quantities and metric descriptors for
// performance and cost measurement, following the principles of Sadok,
// Panda and Sherry, "Of Apples and Oranges: Fair Comparisons in
// Heterogenous Systems Evaluation" (HotNets '23).
//
// The package distinguishes three properties a good research cost metric
// should have (paper §3): it should be context-independent (§3.1),
// quantifiable (§3.2), and cover all compared systems end-to-end (§3.3).
// Each Descriptor records whether its metric has these properties, and
// Table1 reproduces the paper's classification of common metrics.
package metric

import (
	"fmt"
	"strings"
)

// BaseDim identifies one of the base dimensions used for dimensional
// analysis of quantities. The set is tailored to heterogeneous systems
// evaluation: alongside the physical dimensions (time, energy, volume)
// it includes discrete resource dimensions (cores, LUTs) and the
// context-dependent economic dimensions (currency, carbon) so that
// quantities of different kinds can never be confused or added.
type BaseDim int

// Base dimensions. The order is part of the package API only insofar as
// Dimension exponent vectors are indexed by it.
const (
	DimData         BaseDim = iota // information, canonical unit: bit
	DimPackets                     // packets (frames)
	DimTime                        // time, canonical unit: second
	DimEnergy                      // energy, canonical unit: joule
	DimVolume                      // physical space, canonical unit: cubic metre
	DimArea                        // silicon area, canonical unit: square millimetre
	DimCurrency                    // money, canonical unit: USD
	DimCarbon                      // greenhouse gases, canonical unit: kg CO2e
	DimCores                       // CPU cores
	DimLUTs                        // FPGA lookup tables
	DimMemory                      // memory capacity, canonical unit: byte
	DimTransactions                // transactions (e.g. TPC-style)
	DimRackUnits                   // standard 19" rack units
	numBaseDims
)

var baseDimNames = [numBaseDims]string{
	"data", "packets", "time", "energy", "volume", "area", "currency",
	"carbon", "cores", "luts", "memory", "transactions", "rackunits",
}

// String returns the lower-case name of the base dimension.
func (d BaseDim) String() string {
	if d < 0 || d >= numBaseDims {
		return fmt.Sprintf("BaseDim(%d)", int(d))
	}
	return baseDimNames[d]
}

// Dimension is an integer exponent vector over the base dimensions.
// For example, throughput in bits per second has Dimension with
// DimData exponent +1 and DimTime exponent -1; power (watts) has
// DimEnergy +1 and DimTime -1.
//
// The zero value is the dimensionless Dimension.
type Dimension struct {
	exp [numBaseDims]int8
}

// Dim constructs a Dimension from (BaseDim, exponent) pairs. It panics if
// given an odd number of arguments or an unknown base dimension, since a
// malformed dimension is a programming error, not a runtime condition.
func Dim(pairs ...any) Dimension {
	if len(pairs)%2 != 0 {
		panic("metric.Dim: odd number of arguments")
	}
	var d Dimension
	for i := 0; i < len(pairs); i += 2 {
		b, ok := pairs[i].(BaseDim)
		if !ok {
			panic(fmt.Sprintf("metric.Dim: argument %d is not a BaseDim", i))
		}
		e, ok := pairs[i+1].(int)
		if !ok {
			panic(fmt.Sprintf("metric.Dim: argument %d is not an int", i+1))
		}
		if b < 0 || b >= numBaseDims {
			panic(fmt.Sprintf("metric.Dim: unknown base dimension %d", int(b)))
		}
		d.exp[b] += int8(e)
	}
	return d
}

// Div returns the dimension of a quotient of quantities with dimensions
// d and o (exponents subtract).
func (d Dimension) Div(o Dimension) Dimension {
	var r Dimension
	for i := range d.exp {
		r.exp[i] = d.exp[i] - o.exp[i]
	}
	return r
}

// String renders the dimension as a product of base-dimension powers,
// e.g. "data·time^-1". The dimensionless Dimension renders as "1".
func (d Dimension) String() string {
	var parts []string
	for i, e := range d.exp {
		switch {
		case e == 0:
		case e == 1:
			parts = append(parts, baseDimNames[i])
		default:
			parts = append(parts, fmt.Sprintf("%s^%d", baseDimNames[i], e))
		}
	}
	if len(parts) == 0 {
		return "1"
	}
	return strings.Join(parts, "·")
}
