package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fairbench/internal/metric"
)

// Property-based tests on composition: end-to-end cost aggregation must
// behave like a commutative monoid over components, or Principle 3
// arithmetic would depend on presentation order.

func randComponents(r *rand.Rand, n int) []Component {
	out := make([]Component, n)
	for i := range out {
		out[i] = Component{
			Name: string(rune('a' + i)),
			Costs: Vector{
				metric.MetricPower: metric.Q(float64(r.Intn(500))+1, metric.Watt),
			},
		}
	}
	return out
}

func TestComposeOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 2
		comps := randComponents(r, n)
		a, err := ComposePower(comps)
		if err != nil {
			return false
		}
		// Shuffle and recompose.
		shuffled := append([]Component(nil), comps...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b, err := ComposePower(shuffled)
		if err != nil {
			return false
		}
		return math.Abs(a.Canonical()-b.Canonical()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComposeEqualsManualSum(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		comps := randComponents(r, n)
		total, err := ComposePower(comps)
		if err != nil {
			return false
		}
		var manual float64
		for _, c := range comps {
			manual += c.Costs[metric.MetricPower].Canonical()
		}
		return math.Abs(total.Canonical()-manual) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScaleComposeCommute(t *testing.T) {
	// Scaling every component by k then composing equals composing
	// then scaling — the identity that makes ideal scaling of
	// multi-component systems well-defined.
	r := rand.New(rand.NewSource(71))
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%5) + 1
		k := float64(kRaw%40)/10 + 0.1
		comps := randComponents(r, n)

		scaledComps := make([]Component, n)
		for i, c := range comps {
			scaledComps[i] = Component{Name: c.Name, Costs: Vector{
				metric.MetricPower: c.Costs[metric.MetricPower].Scale(k),
			}}
		}
		a, err1 := ComposePower(scaledComps)
		whole, err2 := ComposePower(comps)
		if err1 != nil || err2 != nil {
			return false
		}
		b := whole.Scale(k)
		return math.Abs(a.Canonical()-b.Canonical()) < 1e-6*math.Max(1, b.Canonical())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTCOMonotoneInPrices(t *testing.T) {
	// Raising any context price never lowers TCO.
	bom := testBOM()
	base := Context{Name: "b", EnergyUSDPerKWh: 0.1, RackUSDPerUnitYear: 500, PUE: 1.3, OpsUSDPerDeviceYear: 200}
	baseTCO, err := DefaultPricingModel.TCO(bom, base)
	if err != nil {
		t.Fatal(err)
	}
	bump := []func(Context) Context{
		func(c Context) Context { c.EnergyUSDPerKWh *= 2; return c },
		func(c Context) Context { c.RackUSDPerUnitYear *= 2; return c },
		func(c Context) Context { c.PUE += 0.5; return c },
		func(c Context) Context { c.OpsUSDPerDeviceYear *= 2; return c },
	}
	for i, f := range bump {
		got, err := DefaultPricingModel.TCO(bom, f(base))
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalUSD <= baseTCO.TotalUSD {
			t.Errorf("bump %d: TCO %v not above base %v", i, got.TotalUSD, baseTCO.TotalUSD)
		}
	}
	// Discounts lower it.
	disc := base
	disc.HardwareDiscount = 0.5
	got, err := DefaultPricingModel.TCO(bom, disc)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalUSD >= baseTCO.TotalUSD {
		t.Errorf("discounted TCO %v not below base %v", got.TotalUSD, baseTCO.TotalUSD)
	}
}
