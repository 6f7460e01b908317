package metric

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomDimension(r *rand.Rand) Dimension {
	var d Dimension
	for i := range d.exp {
		d.exp[i] = int8(r.Intn(7) - 3)
	}
	return d
}

// Generate implements quick.Generator so Dimension can be used directly
// in property-based tests.
func (Dimension) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomDimension(r))
}

func TestDimConstruction(t *testing.T) {
	d := Dim(DimData, 1, DimTime, -1)
	if got := d.exp[DimData]; got != 1 {
		t.Errorf("Exp(DimData) = %d, want 1", got)
	}
	if got := d.exp[DimTime]; got != -1 {
		t.Errorf("Exp(DimTime) = %d, want -1", got)
	}
	if got := d.exp[DimEnergy]; got != 0 {
		t.Errorf("Exp(DimEnergy) = %d, want 0", got)
	}
}

func TestDimRepeatedPairsAccumulate(t *testing.T) {
	d := Dim(DimTime, -1, DimTime, -1)
	if got := d.exp[DimTime]; got != -2 {
		t.Errorf("accumulated exponent = %d, want -2", got)
	}
}

func TestDimPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dim with odd args did not panic")
		}
	}()
	Dim(DimData)
}

func TestDimPanicsOnWrongTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dim with non-BaseDim first arg did not panic")
		}
	}()
	Dim("data", 1)
}

func TestDimensionless(t *testing.T) {
	if Dim(DimData, 1) == (Dimension{}) {
		t.Error("data dimension should not be dimensionless")
	}
	if Dim(DimData, 1).Div(Dim(DimData, 1)) != (Dimension{}) {
		t.Error("d/d should be dimensionless")
	}
}

func TestDimensionString(t *testing.T) {
	cases := []struct {
		d    Dimension
		want string
	}{
		{Dimension{}, "1"},
		{Dim(DimData, 1), "data"},
		{Dim(DimData, 1, DimTime, -1), "data·time^-1"},
		{Dim(DimEnergy, 1, DimTime, -1), "time^-1·energy"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.d.exp, got, c.want)
		}
	}
}

func TestDimensionDivSelfDimensionless(t *testing.T) {
	f := func(a Dimension) bool {
		return a.Div(a) == Dimension{}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseDimString(t *testing.T) {
	if DimData.String() != "data" {
		t.Errorf("DimData.String() = %q", DimData.String())
	}
	if got := BaseDim(99).String(); got != "BaseDim(99)" {
		t.Errorf("out-of-range BaseDim.String() = %q", got)
	}
}
