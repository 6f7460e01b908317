package cost

import (
	"math"
	"testing"
)

func testBOM() BillOfMaterials {
	return BillOfMaterials{
		System: "firewall-smartnic",
		Items: []BOMItem{
			{Device: "server", Count: 1, ListPriceUSD: 8000, PowerWatts: 300, RackUnits: 2},
			{Device: "smartnic", Count: 1, ListPriceUSD: 2000, PowerWatts: 60, RackUnits: 0},
		},
	}
}

func cityContext() Context {
	return Context{
		Name:                "big-city-enterprise",
		EnergyUSDPerKWh:     0.25,
		RackUSDPerUnitYear:  1200,
		PUE:                 1.6,
		HardwareDiscount:    0,
		OpsUSDPerDeviceYear: 500,
		CarbonKgPerKWh:      0.4,
	}
}

func ruralBulkContext() Context {
	return Context{
		Name:                "rural-hyperscaler",
		EnergyUSDPerKWh:     0.06,
		RackUSDPerUnitYear:  200,
		PUE:                 1.1,
		HardwareDiscount:    0.35,
		OpsUSDPerDeviceYear: 120,
		CarbonKgPerKWh:      0.2,
	}
}

func TestTCOIsContextDependent(t *testing.T) {
	// The paper's core §3.1 claim, demonstrated: the *same* system
	// yields very different TCO for different deployers.
	bom := testBOM()
	m := DefaultPricingModel
	city, err := m.TCO(bom, cityContext())
	if err != nil {
		t.Fatalf("TCO(city): %v", err)
	}
	rural, err := m.TCO(bom, ruralBulkContext())
	if err != nil {
		t.Fatalf("TCO(rural): %v", err)
	}
	if city.TotalUSD <= rural.TotalUSD {
		t.Errorf("city TCO (%v) should exceed rural bulk TCO (%v)", city.TotalUSD, rural.TotalUSD)
	}
	if city.TotalUSD < 1.5*rural.TotalUSD {
		t.Errorf("contexts should diverge substantially: city %v vs rural %v", city.TotalUSD, rural.TotalUSD)
	}
}

func TestTCOBreakdownArithmetic(t *testing.T) {
	bom := BillOfMaterials{
		System: "simple",
		Items:  []BOMItem{{Device: "box", Count: 2, ListPriceUSD: 1000, PowerWatts: 100, RackUnits: 1}},
	}
	ctx := Context{Name: "flat", EnergyUSDPerKWh: 0.10, RackUSDPerUnitYear: 100, PUE: 1.0, OpsUSDPerDeviceYear: 50}
	m := PricingModel{Years: 1, DutyCycle: 1}
	got, err := m.TCO(bom, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.HardwareUSD != 2000 {
		t.Errorf("hardware = %v", got.HardwareUSD)
	}
	wantEnergy := 0.2 * 8760 * 0.10 // 200 W for a year at $0.10/kWh
	if math.Abs(got.EnergyUSD-wantEnergy) > 1e-6 {
		t.Errorf("energy = %v, want %v", got.EnergyUSD, wantEnergy)
	}
	if got.RackUSD != 200 {
		t.Errorf("rack = %v, want 200", got.RackUSD)
	}
	if got.OpsUSD != 100 {
		t.Errorf("ops = %v, want 100", got.OpsUSD)
	}
	wantTotal := got.HardwareUSD + got.EnergyUSD + got.RackUSD + got.OpsUSD
	if got.TotalUSD != wantTotal {
		t.Errorf("total = %v, want %v", got.TotalUSD, wantTotal)
	}
}

func TestTCOValidation(t *testing.T) {
	m := DefaultPricingModel
	if _, err := m.TCO(BillOfMaterials{System: "empty"}, cityContext()); err == nil {
		t.Error("empty BOM should fail")
	}
	bad := cityContext()
	bad.PUE = 0.5
	if _, err := m.TCO(testBOM(), bad); err == nil {
		t.Error("PUE < 1 should fail")
	}
	neg := cityContext()
	neg.EnergyUSDPerKWh = -1
	if _, err := m.TCO(testBOM(), neg); err == nil {
		t.Error("negative price should fail")
	}
	discount := cityContext()
	discount.HardwareDiscount = 1.5
	if _, err := m.TCO(testBOM(), discount); err == nil {
		t.Error("discount >= 1 should fail")
	}
	badModel := PricingModel{Years: 0, DutyCycle: 1}
	if _, err := badModel.TCO(testBOM(), cityContext()); err == nil {
		t.Error("zero-year model should fail")
	}
}

func TestBOMItemValidation(t *testing.T) {
	b := BillOfMaterials{System: "x", Items: []BOMItem{{Device: "d", Count: 0}}}
	if err := b.Validate(); err == nil {
		t.Error("zero count should fail validation")
	}
	b = BillOfMaterials{System: "x", Items: []BOMItem{{Device: "d", Count: 1, PowerWatts: -5}}}
	if err := b.Validate(); err == nil {
		t.Error("negative power should fail validation")
	}
}

func TestReleaseRoundTrip(t *testing.T) {
	// §3.1's remedy: publish the pricing model so others can compute
	// TCO for their context. The artifact must round-trip.
	bomA, bomB := testBOM(), BillOfMaterials{
		System: "firewall-baseline",
		Items:  []BOMItem{{Device: "server", Count: 1, ListPriceUSD: 8000, PowerWatts: 300, RackUnits: 2}},
	}
	data, err := MarshalRelease(DefaultPricingModel, bomA, bomB)
	if err != nil {
		t.Fatalf("MarshalRelease: %v", err)
	}
	model, boms, err := UnmarshalRelease(data)
	if err != nil {
		t.Fatalf("UnmarshalRelease: %v", err)
	}
	if model != DefaultPricingModel {
		t.Errorf("model round-trip: %+v", model)
	}
	if len(boms) != 2 || boms[0].System != "firewall-smartnic" {
		t.Errorf("BOM round-trip: %+v", boms)
	}
	// A reader recomputes TCO under their own context and gets the same
	// answer as the publisher would.
	pub, _ := DefaultPricingModel.TCO(bomA, cityContext())
	reader, err := model.TCO(boms[0], cityContext())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pub.TotalUSD-reader.TotalUSD) > 1e-9 {
		t.Errorf("reader TCO %v != publisher TCO %v", reader.TotalUSD, pub.TotalUSD)
	}
}

func TestUnmarshalReleaseBadJSON(t *testing.T) {
	if _, _, err := UnmarshalRelease([]byte("{nope")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestCarbonScalesWithEnergy(t *testing.T) {
	bom := testBOM()
	low, _ := DefaultPricingModel.TCO(bom, ruralBulkContext())
	high, _ := DefaultPricingModel.TCO(bom, cityContext())
	if low.CarbonKg >= high.CarbonKg {
		t.Errorf("carbon should track grid intensity and PUE: %v vs %v", low.CarbonKg, high.CarbonKg)
	}
}

func TestManagedDeviceOverride(t *testing.T) {
	bom := BillOfMaterials{
		System: "cluster",
		Items:  []BOMItem{{Device: "node", Count: 10, ListPriceUSD: 100, PowerWatts: 10, RackUnits: 1, DeviceCount: 2}},
	}
	ctx := Context{Name: "c", PUE: 1, OpsUSDPerDeviceYear: 100}
	got, err := PricingModel{Years: 1, DutyCycle: 1}.TCO(bom, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.OpsUSD != 200 {
		t.Errorf("ops with DeviceCount override = %v, want 200", got.OpsUSD)
	}
}
