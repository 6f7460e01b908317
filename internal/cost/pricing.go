package cost

import (
	"encoding/json"
	"fmt"
	"math"
)

// Context holds the deployment-specific parameters that make TCO
// context-dependent (paper §3.1): energy prices, rack rents, purchase
// discounts. Two organisations evaluating the *same* hardware will hold
// different Contexts and therefore compute different TCOs — which is
// exactly why raw TCO numbers do not belong in papers.
type Context struct {
	// Name labels the context, e.g. "hyperscaler-bulk" or
	// "university-lab".
	Name string `json:"name"`
	// EnergyUSDPerKWh is the electricity price.
	EnergyUSDPerKWh float64 `json:"energy_usd_per_kwh"`
	// RackUSDPerUnitYear is the yearly rent of one rack unit (power and
	// cooling excluded; those come from EnergyUSDPerKWh and PUE).
	RackUSDPerUnitYear float64 `json:"rack_usd_per_unit_year"`
	// PUE is the facility's power usage effectiveness (>= 1); total
	// facility energy is IT energy × PUE.
	PUE float64 `json:"pue"`
	// HardwareDiscount is the fractional discount off list price
	// obtained by this purchaser (0 = list price, 0.3 = 30% off bulk
	// discount).
	HardwareDiscount float64 `json:"hardware_discount"`
	// OpsUSDPerDeviceYear is the administration cost per device-year.
	OpsUSDPerDeviceYear float64 `json:"ops_usd_per_device_year"`
	// CarbonKgPerKWh is the grid's carbon intensity, used for carbon
	// estimates (itself context-dependent, §3.2).
	CarbonKgPerKWh float64 `json:"carbon_kg_per_kwh"`
}

// Validate checks the context for physically meaningful values.
func (c Context) Validate() error {
	if c.PUE < 1 {
		return fmt.Errorf("cost: context %q: PUE %v < 1", c.Name, c.PUE)
	}
	if c.EnergyUSDPerKWh < 0 || c.RackUSDPerUnitYear < 0 || c.OpsUSDPerDeviceYear < 0 {
		return fmt.Errorf("cost: context %q: negative prices", c.Name)
	}
	if c.HardwareDiscount < 0 || c.HardwareDiscount >= 1 {
		return fmt.Errorf("cost: context %q: discount %v outside [0,1)", c.Name, c.HardwareDiscount)
	}
	return nil
}

// BillOfMaterials is the context-independent description of what a
// system is made of: per-device list prices, power draws and rack
// occupancy. This — not a TCO dollar figure — is what a paper should
// release (§3.1: "release (with the paper) the pricing model used to
// compute the TCO, allowing others to compute TCO for their systems").
type BillOfMaterials struct {
	// System names the system the BOM describes.
	System string `json:"system"`
	// Items lists the devices.
	Items []BOMItem `json:"items"`
}

// BOMItem is one device in a bill of materials.
type BOMItem struct {
	Device       string  `json:"device"`
	Count        int     `json:"count"`
	ListPriceUSD float64 `json:"list_price_usd"`
	PowerWatts   float64 `json:"power_watts"`
	RackUnits    float64 `json:"rack_units"`
	DeviceCount  int     `json:"managed_devices"` // devices needing administration; default Count
}

// Validate checks the BOM for meaningful values.
func (b BillOfMaterials) Validate() error {
	if len(b.Items) == 0 {
		return fmt.Errorf("cost: BOM %q has no items", b.System)
	}
	for _, it := range b.Items {
		if it.Count <= 0 {
			return fmt.Errorf("cost: BOM %q item %q: count %d", b.System, it.Device, it.Count)
		}
		if it.ListPriceUSD < 0 || it.PowerWatts < 0 || it.RackUnits < 0 {
			return fmt.Errorf("cost: BOM %q item %q: negative values", b.System, it.Device)
		}
	}
	return nil
}

// TotalPowerWatts returns the context-independent total power of the BOM.
func (b BillOfMaterials) TotalPowerWatts() float64 {
	var w float64
	for _, it := range b.Items {
		w += float64(it.Count) * it.PowerWatts
	}
	return w
}

// TotalRackUnits returns the total rack occupancy of the BOM.
func (b BillOfMaterials) TotalRackUnits() float64 {
	var ru float64
	for _, it := range b.Items {
		ru += float64(it.Count) * it.RackUnits
	}
	return ru
}

// TotalListPriceUSD returns the undiscounted hardware price.
func (b BillOfMaterials) TotalListPriceUSD() float64 {
	var p float64
	for _, it := range b.Items {
		p += float64(it.Count) * it.ListPriceUSD
	}
	return p
}

// TCOBreakdown itemises a TCO computation so readers can audit which
// parts are context-sensitive.
type TCOBreakdown struct {
	Context     string  `json:"context"`
	System      string  `json:"system"`
	Years       float64 `json:"years"`
	HardwareUSD float64 `json:"hardware_usd"`
	EnergyUSD   float64 `json:"energy_usd"`
	RackUSD     float64 `json:"rack_usd"`
	OpsUSD      float64 `json:"ops_usd"`
	TotalUSD    float64 `json:"total_usd"`
	CarbonKg    float64 `json:"carbon_kg"`
}

// PricingModel computes TCO from a context-independent BOM and a
// context. Marshal it to JSON and publish it alongside results; other
// researchers then substitute their own Context.
type PricingModel struct {
	// Years is the amortisation horizon.
	Years float64 `json:"years"`
	// DutyCycle is the fraction of time the system draws its rated
	// power (1 = always on at full draw).
	DutyCycle float64 `json:"duty_cycle"`
}

// DefaultPricingModel is a conventional 3-year, always-on model.
var DefaultPricingModel = PricingModel{Years: 3, DutyCycle: 1}

// TCO computes the total cost of ownership of the BOM under ctx.
func (m PricingModel) TCO(b BillOfMaterials, ctx Context) (TCOBreakdown, error) {
	if err := b.Validate(); err != nil {
		return TCOBreakdown{}, err
	}
	if err := ctx.Validate(); err != nil {
		return TCOBreakdown{}, err
	}
	if m.Years <= 0 || m.DutyCycle < 0 || m.DutyCycle > 1 {
		return TCOBreakdown{}, fmt.Errorf("cost: pricing model years=%v duty=%v invalid", m.Years, m.DutyCycle)
	}
	hoursTotal := m.Years * 365 * 24 * m.DutyCycle
	kwh := b.TotalPowerWatts() / 1000 * hoursTotal * ctx.PUE

	var devices int
	for _, it := range b.Items {
		n := it.DeviceCount
		if n == 0 {
			n = it.Count
		}
		devices += n
	}

	out := TCOBreakdown{
		Context:     ctx.Name,
		System:      b.System,
		Years:       m.Years,
		HardwareUSD: b.TotalListPriceUSD() * (1 - ctx.HardwareDiscount),
		EnergyUSD:   kwh * ctx.EnergyUSDPerKWh,
		RackUSD:     b.TotalRackUnits() * ctx.RackUSDPerUnitYear * m.Years,
		OpsUSD:      float64(devices) * ctx.OpsUSDPerDeviceYear * m.Years,
		CarbonKg:    kwh * ctx.CarbonKgPerKWh,
	}
	out.TotalUSD = out.HardwareUSD + out.EnergyUSD + out.RackUSD + out.OpsUSD
	if math.IsNaN(out.TotalUSD) || math.IsInf(out.TotalUSD, 0) {
		return TCOBreakdown{}, fmt.Errorf("cost: TCO overflow for %q under %q", b.System, ctx.Name)
	}
	return out, nil
}

// MarshalRelease serialises the pricing model and BOM into the JSON
// artifact a paper should publish: everything needed for a reader to
// recompute TCO under their own context.
func MarshalRelease(m PricingModel, boms ...BillOfMaterials) ([]byte, error) {
	type release struct {
		Model PricingModel      `json:"pricing_model"`
		BOMs  []BillOfMaterials `json:"bills_of_materials"`
	}
	return json.MarshalIndent(release{Model: m, BOMs: boms}, "", "  ")
}

// UnmarshalRelease parses an artifact produced by MarshalRelease.
func UnmarshalRelease(data []byte) (PricingModel, []BillOfMaterials, error) {
	var rel struct {
		Model PricingModel      `json:"pricing_model"`
		BOMs  []BillOfMaterials `json:"bills_of_materials"`
	}
	if err := json.Unmarshal(data, &rel); err != nil {
		return PricingModel{}, nil, fmt.Errorf("cost: parsing release: %w", err)
	}
	return rel.Model, rel.BOMs, nil
}
