package metric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvertRate(t *testing.T) {
	q := Q(10, GigabitPerSecond)
	got, err := q.Convert(MegabitPerSecond)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	if got.Value != 10000 {
		t.Errorf("10 Gb/s = %v Mb/s, want 10000", got.Value)
	}
}

func TestConvertIncompatible(t *testing.T) {
	_, err := Q(10, Watt).Convert(GigabitPerSecond)
	if !errors.Is(err, ErrIncompatible) {
		t.Errorf("converting W to Gb/s: err = %v, want ErrIncompatible", err)
	}
}

func TestAddSameDimensionDifferentUnits(t *testing.T) {
	// 1 Gb/s + 500 Mb/s = 1.5 Gb/s.
	got, err := Q(1, GigabitPerSecond).Add(Q(500, MegabitPerSecond))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if got.Unit != GigabitPerSecond || math.Abs(got.Value-1.5) > 1e-12 {
		t.Errorf("got %v, want 1.5 Gb/s", got)
	}
}

func TestAddIncompatibleFails(t *testing.T) {
	// The paper's Principle 3 in miniature: you cannot add CPU cores
	// to FPGA LUTs.
	_, err := Q(4, Core).Add(Q(20000, LUT))
	if !errors.Is(err, ErrIncompatible) {
		t.Errorf("cores + LUTs: err = %v, want ErrIncompatible", err)
	}
}

func TestRatio(t *testing.T) {
	// The §4.2.1 ideal-scaling factor: 100 Gb/s over 35 Gb/s ≈ 2.857.
	k, err := Q(100, GigabitPerSecond).Ratio(Q(35, GigabitPerSecond))
	if err != nil {
		t.Fatalf("Ratio: %v", err)
	}
	if math.Abs(k-100.0/35.0) > 1e-12 {
		t.Errorf("ratio = %v, want %v", k, 100.0/35.0)
	}
	if _, err := Q(1, Watt).Ratio(Q(1, Core)); !errors.Is(err, ErrIncompatible) {
		t.Errorf("W/core ratio err = %v, want ErrIncompatible", err)
	}
}

func TestApproxEqual(t *testing.T) {
	if !Q(100, Watt).ApproxEqual(Q(100.5, Watt), 0.01) {
		t.Error("100W ≈ 100.5W at 1% should hold")
	}
	if Q(100, Watt).ApproxEqual(Q(110, Watt), 0.01) {
		t.Error("100W ≈ 110W at 1% should not hold")
	}
	if Q(100, Watt).ApproxEqual(Q(100, Second), 0.5) {
		t.Error("incompatible quantities are never approx-equal")
	}
}

func TestBTUConversion(t *testing.T) {
	// 1 W ≈ 3.412 BTU/h.
	btu, err := Q(1, Watt).Convert(BTUPerHour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(btu.Value-3.412) > 0.01 {
		t.Errorf("1 W = %v BTU/h, want ≈3.412", btu.Value)
	}
}

func TestQuantityString(t *testing.T) {
	cases := []struct {
		q    Quantity
		want string
	}{
		{Q(20, GigabitPerSecond), "20 Gb/s"},
		{Q(70.5, Watt), "70.5 W"},
		{Q(0.97, Scalar), "0.97"},
		{Q(285.7143, Watt), "285.7143 W"},
	}
	for _, c := range cases {
		if got := c.q.String(); got != c.want {
			t.Errorf("String(%v %s) = %q, want %q", c.q.Value, c.q.Unit.Symbol, got, c.want)
		}
	}
}

// Property: conversion round-trips within floating-point tolerance.
func TestConvertRoundTrip(t *testing.T) {
	units := []Unit{BitPerSecond, MegabitPerSecond, GigabitPerSecond}
	f := func(v float64, i, j uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true // skip pathological inputs
		}
		a := units[int(i)%len(units)]
		b := units[int(j)%len(units)]
		q := Q(v, a)
		there, err1 := q.Convert(b)
		rt, err2 := there.Convert(a)
		return err1 == nil && err2 == nil && q.ApproxEqual(rt, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative (expressed in canonical units) for
// compatible quantities.
func TestAddCommutativeCanonical(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e12 || math.Abs(b) > 1e12 {
			return true
		}
		x := Q(a, Watt)
		y := Q(b, Kilowatt)
		s1, err1 := x.Add(y)
		s2, err2 := y.Add(x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(s1.Canonical()-s2.Canonical()) <= 1e-9*math.Max(1, math.Abs(s1.Canonical()))
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Scale distributes over Add.
func TestScaleDistributesOverAdd(t *testing.T) {
	f := func(a, b float64, kRaw uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e9 || math.Abs(b) > 1e9 {
			return true
		}
		k := float64(kRaw%10) + 0.5
		x, y := Q(a, Watt), Q(b, Watt)
		sum, _ := x.Add(y)
		lhs := sum.Scale(k)
		sx, sy := x.Scale(k), y.Scale(k)
		rhs, _ := sx.Add(sy)
		return math.Abs(lhs.Value-rhs.Value) <= 1e-6*math.Max(1, math.Abs(lhs.Value))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
