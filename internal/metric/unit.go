package metric

// Unit is a named scale of a Dimension. Converting a value expressed in
// this unit to the dimension's canonical unit multiplies by Scale.
//
// Units are value types; two units are interchangeable exactly when all
// their fields are equal. Predefined units for the metrics discussed in
// the paper are provided as package variables.
type Unit struct {
	// Name is the full human-readable name, e.g. "gigabit per second".
	Name string
	// Symbol is the short form used in tables, e.g. "Gb/s".
	Symbol string
	// Dim is the unit's dimension.
	Dim Dimension
	// Scale converts a value in this unit to the canonical unit of Dim.
	// It must be positive.
	Scale float64
}

// String returns the unit symbol.
func (u Unit) String() string { return u.Symbol }

// Compatible reports whether quantities in units u and o measure the same
// dimension and can therefore be converted into one another.
func (u Unit) Compatible(o Unit) bool { return u.Dim == o.Dim }

// Predefined units. Canonical units have Scale 1.
var (
	// Dimensionless.
	Scalar  = Unit{Name: "scalar", Symbol: "", Dim: Dimension{}, Scale: 1}
	Percent = Unit{Name: "percent", Symbol: "%", Dim: Dimension{}, Scale: 0.01}

	// Data.
	Bit      = Unit{Name: "bit", Symbol: "b", Dim: Dim(DimData, 1), Scale: 1}
	Kilobit  = Unit{Name: "kilobit", Symbol: "kb", Dim: Dim(DimData, 1), Scale: 1e3}
	Megabit  = Unit{Name: "megabit", Symbol: "Mb", Dim: Dim(DimData, 1), Scale: 1e6}
	Gigabit  = Unit{Name: "gigabit", Symbol: "Gb", Dim: Dim(DimData, 1), Scale: 1e9}
	ByteUnit = Unit{Name: "byte", Symbol: "B", Dim: Dim(DimData, 1), Scale: 8}

	// Packets.
	Packet = Unit{Name: "packet", Symbol: "pkt", Dim: Dim(DimPackets, 1), Scale: 1}

	// Time.
	Second      = Unit{Name: "second", Symbol: "s", Dim: Dim(DimTime, 1), Scale: 1}
	Millisecond = Unit{Name: "millisecond", Symbol: "ms", Dim: Dim(DimTime, 1), Scale: 1e-3}
	Microsecond = Unit{Name: "microsecond", Symbol: "µs", Dim: Dim(DimTime, 1), Scale: 1e-6}
	Nanosecond  = Unit{Name: "nanosecond", Symbol: "ns", Dim: Dim(DimTime, 1), Scale: 1e-9}
	Hour        = Unit{Name: "hour", Symbol: "h", Dim: Dim(DimTime, 1), Scale: 3600}
	Year        = Unit{Name: "year", Symbol: "yr", Dim: Dim(DimTime, 1), Scale: 365 * 24 * 3600}

	// Rates.
	BitPerSecond     = Unit{Name: "bit per second", Symbol: "b/s", Dim: Dim(DimData, 1, DimTime, -1), Scale: 1}
	MegabitPerSecond = Unit{Name: "megabit per second", Symbol: "Mb/s", Dim: Dim(DimData, 1, DimTime, -1), Scale: 1e6}
	GigabitPerSecond = Unit{Name: "gigabit per second", Symbol: "Gb/s", Dim: Dim(DimData, 1, DimTime, -1), Scale: 1e9}
	PacketPerSecond  = Unit{Name: "packet per second", Symbol: "pps", Dim: Dim(DimPackets, 1, DimTime, -1), Scale: 1}
	MegaPacketPerSec = Unit{Name: "million packets per second", Symbol: "Mpps", Dim: Dim(DimPackets, 1, DimTime, -1), Scale: 1e6}

	// Energy and power.
	Joule        = Unit{Name: "joule", Symbol: "J", Dim: Dim(DimEnergy, 1), Scale: 1}
	KilowattHour = Unit{Name: "kilowatt hour", Symbol: "kWh", Dim: Dim(DimEnergy, 1), Scale: 3.6e6}
	Watt         = Unit{Name: "watt", Symbol: "W", Dim: Dim(DimEnergy, 1, DimTime, -1), Scale: 1}
	Kilowatt     = Unit{Name: "kilowatt", Symbol: "kW", Dim: Dim(DimEnergy, 1, DimTime, -1), Scale: 1e3}
	// BTUPerHour measures heat dissipation; 1 BTU/h = 0.29307107 W.
	BTUPerHour = Unit{Name: "BTU per hour", Symbol: "BTU/h", Dim: Dim(DimEnergy, 1, DimTime, -1), Scale: 0.29307107}

	// Space and silicon.
	CubicMetre        = Unit{Name: "cubic metre", Symbol: "m³", Dim: Dim(DimVolume, 1), Scale: 1}
	RackUnit          = Unit{Name: "rack unit", Symbol: "RU", Dim: Dim(DimRackUnits, 1), Scale: 1}
	SquareMillimetre  = Unit{Name: "square millimetre", Symbol: "mm²", Dim: Dim(DimArea, 1), Scale: 1}
	Core              = Unit{Name: "CPU core", Symbol: "core", Dim: Dim(DimCores, 1), Scale: 1}
	LUT               = Unit{Name: "FPGA lookup table", Symbol: "LUT", Dim: Dim(DimLUTs, 1), Scale: 1}
	KiloLUT           = Unit{Name: "thousand FPGA lookup tables", Symbol: "kLUT", Dim: Dim(DimLUTs, 1), Scale: 1e3}
	MemByte           = Unit{Name: "byte of memory", Symbol: "B(mem)", Dim: Dim(DimMemory, 1), Scale: 1}
	Megabyte          = Unit{Name: "megabyte of memory", Symbol: "MB", Dim: Dim(DimMemory, 1), Scale: 1e6}
	TransactionPerSec = Unit{Name: "transaction per second", Symbol: "tps", Dim: Dim(DimTransactions, 1, DimTime, -1), Scale: 1}

	// Economic (context-dependent dimensions).
	USD           = Unit{Name: "US dollar", Symbol: "$", Dim: Dim(DimCurrency, 1), Scale: 1}
	USDPerKWh     = Unit{Name: "US dollar per kilowatt hour", Symbol: "$/kWh", Dim: Dim(DimCurrency, 1).Div(Dim(DimEnergy, 1)), Scale: 1 / 3.6e6}
	KgCO2e        = Unit{Name: "kilogram CO2 equivalent", Symbol: "kgCO2e", Dim: Dim(DimCarbon, 1), Scale: 1}
	GramCO2PerKWh = Unit{Name: "gram CO2e per kilowatt hour", Symbol: "gCO2e/kWh", Dim: Dim(DimCarbon, 1).Div(Dim(DimEnergy, 1)), Scale: 1e-3 / 3.6e6}
)

// CanonicalUnit returns an anonymous unit with Scale 1 for dimension d.
// It is used when arithmetic on quantities produces a dimension with no
// predefined unit.
func CanonicalUnit(d Dimension) Unit {
	return Unit{Name: "canonical " + d.String(), Symbol: d.String(), Dim: d, Scale: 1}
}
