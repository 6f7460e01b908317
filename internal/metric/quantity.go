package metric

import (
	"errors"
	"fmt"
	"math"
)

// ErrIncompatible is returned by quantity arithmetic when the operands
// measure different dimensions (for example, adding watts to CPU cores).
// Refusing such operations is what lets the cost framework detect
// end-to-end coverage violations instead of silently mixing units.
var ErrIncompatible = errors.New("metric: incompatible dimensions")

// Quantity is a physical or resource quantity: a value with a unit.
// The zero value is a dimensionless zero.
type Quantity struct {
	Value float64
	Unit  Unit
}

// Q is shorthand for constructing a Quantity.
func Q(v float64, u Unit) Quantity { return Quantity{Value: v, Unit: u} }

// Canonical returns the value expressed in the canonical unit of the
// quantity's dimension (e.g. Gb/s → b/s, kWh → J).
func (q Quantity) Canonical() float64 { return q.Value * q.Unit.Scale }

// Convert re-expresses q in unit u. It returns ErrIncompatible if u
// measures a different dimension.
func (q Quantity) Convert(u Unit) (Quantity, error) {
	if !q.Unit.Compatible(u) {
		return Quantity{}, fmt.Errorf("%w: cannot convert %s to %s", ErrIncompatible, q.Unit.Dim, u.Dim)
	}
	return Quantity{Value: q.Canonical() / u.Scale, Unit: u}, nil
}

// Add returns q+o expressed in q's unit. It returns ErrIncompatible if
// the operands measure different dimensions. This is the composition
// primitive behind end-to-end cost coverage (paper Principle 3): adding
// up the same metric across all components of a system.
func (q Quantity) Add(o Quantity) (Quantity, error) {
	if !q.Unit.Compatible(o.Unit) {
		return Quantity{}, fmt.Errorf("%w: %s + %s", ErrIncompatible, q.Unit.Dim, o.Unit.Dim)
	}
	return Quantity{Value: q.Value + o.Canonical()/q.Unit.Scale, Unit: q.Unit}, nil
}

// Scale returns q multiplied by the dimensionless factor k, in q's unit.
func (q Quantity) Scale(k float64) Quantity {
	return Quantity{Value: q.Value * k, Unit: q.Unit}
}

// Ratio returns the dimensionless ratio q/o, or ErrIncompatible if the
// operands measure different dimensions. It is the primitive behind
// ideal-scaling factors (paper §4.2.1).
func (q Quantity) Ratio(o Quantity) (float64, error) {
	if !q.Unit.Compatible(o.Unit) {
		return 0, fmt.Errorf("%w: %s / %s", ErrIncompatible, q.Unit.Dim, o.Unit.Dim)
	}
	return q.Canonical() / o.Canonical(), nil
}

// ApproxEqual reports whether two compatible quantities are equal within
// relative tolerance rel. The comparison is purely relative so that it
// behaves identically at every magnitude (microseconds and gigabits per
// second alike); consequently zero is only approximately equal to zero.
func (q Quantity) ApproxEqual(o Quantity, rel float64) bool {
	if !q.Unit.Compatible(o.Unit) {
		return false
	}
	a, b := q.Canonical(), o.Canonical()
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}

// String renders the quantity with its unit symbol, trimming trailing
// zeros, e.g. "20 Gb/s" or "70 W".
func (q Quantity) String() string {
	if q.Unit.Symbol == "" {
		return trimFloat(q.Value)
	}
	return trimFloat(q.Value) + " " + q.Unit.Symbol
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	// Trim trailing zeros and a trailing decimal point.
	i := len(s)
	for i > 0 && s[i-1] == '0' {
		i--
	}
	if i > 0 && s[i-1] == '.' {
		i--
	}
	return s[:i]
}
