package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fairbench/internal/metric"
)

// gp builds a throughput/power point: perf in Gb/s, cost in W.
func gp(gbps, watts float64) Point {
	return Pt(metric.Q(gbps, metric.GigabitPerSecond), metric.Q(watts, metric.Watt))
}

// lp builds a latency/power point: perf in µs (lower better), cost in W.
func lp(us, watts float64) Point {
	return Pt(metric.Q(us, metric.Microsecond), metric.Q(watts, metric.Watt))
}

func TestCompareThroughputPower(t *testing.T) {
	p := DefaultPlane()
	cases := []struct {
		name string
		a, b Point
		want Relation
	}{
		{"dominates: faster and cheaper", gp(20, 50), gp(10, 70), Dominates},
		{"dominates: faster at same cost", gp(20, 70), gp(10, 70), Dominates},
		{"dominates: same perf cheaper", gp(10, 50), gp(10, 70), Dominates},
		{"dominated: slower and pricier", gp(10, 90), gp(20, 70), DominatedBy},
		{"incomparable: faster but pricier", gp(20, 70), gp(10, 50), Incomparable},
		{"incomparable: slower but cheaper", gp(10, 50), gp(20, 70), Incomparable},
		{"equal", gp(10, 50), gp(10, 50), Equal},
		{"equal within tolerance", gp(10, 50), gp(10.1, 50.5), Equal},
	}
	for _, c := range cases {
		got, err := Compare(p, c.a, c.b, DefaultTolerance)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: Compare(%s, %s) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareLatencyPlane(t *testing.T) {
	// In the latency plane, *lower* perf values are better. The §4.3
	// example: 5µs@100W dominates 10µs@300W.
	p := LatencyPlane()
	got, err := Compare(p, lp(5, 100), lp(10, 300), DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if got != Dominates {
		t.Errorf("5µs@100W vs 10µs@300W = %v, want Dominates", got)
	}
	// 5µs@200W vs 8µs@100W: incomparable.
	got, err = Compare(p, lp(5, 200), lp(8, 100), DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if got != Incomparable {
		t.Errorf("5µs@200W vs 8µs@100W = %v, want Incomparable", got)
	}
}

func TestCompareUnitMismatch(t *testing.T) {
	p := DefaultPlane()
	bad := Pt(metric.Q(5, metric.Microsecond), metric.Q(100, metric.Watt))
	if _, err := Compare(p, bad, gp(10, 50), 0); err == nil {
		t.Error("latency point on a throughput plane should fail")
	}
	badCost := Pt(metric.Q(5, metric.GigabitPerSecond), metric.Q(4, metric.Core))
	if _, err := Compare(p, gp(10, 50), badCost, 0); err == nil {
		t.Error("core-cost point on a power plane should fail")
	}
}

func TestCompareMixedUnitsSameDimension(t *testing.T) {
	p := DefaultPlane()
	a := Pt(metric.Q(10000, metric.MegabitPerSecond), metric.Q(0.05, metric.Kilowatt))
	b := gp(10, 50)
	got, err := Compare(p, a, b, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if got != Equal {
		t.Errorf("10000 Mb/s @ 0.05 kW vs 10 Gb/s @ 50 W = %v, want Equal", got)
	}
}

func TestRelationString(t *testing.T) {
	if Dominates.String() != "≻" || DominatedBy.String() != "≺" || Equal.String() != "=" || Incomparable.String() != "?" {
		t.Error("relation symbols wrong")
	}
}

func randPoint(r *rand.Rand) Point {
	return gp(float64(r.Intn(200))+1, float64(r.Intn(400))+1)
}

// Property: Compare is antisymmetric — Compare(a,b) is always the
// inverse of Compare(b,a).
func TestCompareAntisymmetric(t *testing.T) {
	inverse := map[Relation]Relation{
		Dominates: DominatedBy, DominatedBy: Dominates, Equal: Equal, Incomparable: Incomparable,
	}
	p := DefaultPlane()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := randPoint(r), randPoint(r)
		ab, err1 := Compare(p, a, b, DefaultTolerance)
		ba, err2 := Compare(p, b, a, DefaultTolerance)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ab != inverse[ba] {
			t.Fatalf("antisymmetry violated: %s vs %s: %v / %v", a, b, ab, ba)
		}
	}
}

// Property: with zero tolerance, strict dominance is transitive.
func TestDominanceTransitiveZeroTol(t *testing.T) {
	p := DefaultPlane()
	r := rand.New(rand.NewSource(13))
	checked := 0
	for i := 0; i < 20000 && checked < 300; i++ {
		a, b, c := randPoint(r), randPoint(r), randPoint(r)
		ab, _ := Compare(p, a, b, 0)
		bc, _ := Compare(p, b, c, 0)
		if ab == Dominates && bc == Dominates {
			checked++
			ac, _ := Compare(p, a, c, 0)
			if ac != Dominates {
				t.Fatalf("transitivity violated: %s ≻ %s ≻ %s but a vs c = %v", a, b, c, ac)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no transitive triples sampled; generator broken")
	}
}

// Property: a point compares Equal to itself.
func TestCompareReflexiveEqual(t *testing.T) {
	p := DefaultPlane()
	f := func(perfRaw, costRaw uint16) bool {
		pt := gp(float64(perfRaw)+1, float64(costRaw)+1)
		rel, err := Compare(p, pt, pt, 0)
		return err == nil && rel == Equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: improving exactly one axis strictly yields dominance.
func TestSingleAxisImprovementDominates(t *testing.T) {
	p := DefaultPlane()
	f := func(perfRaw, costRaw, deltaRaw uint16) bool {
		perf := float64(perfRaw) + 10
		cost := float64(costRaw) + 10
		delta := perf * (0.05 + float64(deltaRaw%100)/100) // ≥5% > tolerance
		better := gp(perf+delta, cost)
		worse := gp(perf, cost)
		rel, err := Compare(p, better, worse, DefaultTolerance)
		return err == nil && rel == Dominates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlaneValidate(t *testing.T) {
	if err := DefaultPlane().Validate(); err != nil {
		t.Errorf("default plane should validate: %v", err)
	}
	// Swapped axes must fail.
	r := metric.Standard()
	swapped := Plane{
		Perf: AxisFor(r.MustLookup(metric.MetricPower)),
		Cost: AxisFor(r.MustLookup(metric.MetricThroughputBps)),
	}
	if err := swapped.Validate(); err == nil {
		t.Error("swapped plane should fail validation")
	}
	// A cores-cost plane fails strict validation (not end-to-end) but
	// passes relaxed validation.
	coresPlane := Plane{
		Perf: AxisFor(r.MustLookup(metric.MetricThroughputBps)),
		Cost: AxisFor(r.MustLookup(metric.MetricCores)),
	}
	if err := coresPlane.Validate(); err == nil {
		t.Error("cores cost metric should fail strict validation (Principle 3)")
	}
	if err := coresPlane.ValidateRelaxed(); err != nil {
		t.Errorf("cores plane should pass relaxed validation: %v", err)
	}
}

func TestPointString(t *testing.T) {
	got := gp(20, 70).String()
	if got != "(20 Gb/s, 70 W)" {
		t.Errorf("Point.String = %q", got)
	}
}

func TestCompareNearZeroValues(t *testing.T) {
	p := DefaultPlane()
	rel, err := Compare(p, gp(0, 0), gp(0, 0), DefaultTolerance)
	if err != nil || rel != Equal {
		t.Errorf("zero points: %v, %v", rel, err)
	}
	// Tolerance is purely relative, so any nonzero value differs from
	// zero: the subnormal-perf point dominates the zero-perf point.
	rel, err = Compare(p, gp(math.SmallestNonzeroFloat64, 1), gp(0, 1), DefaultTolerance)
	if err != nil || rel != Dominates {
		t.Errorf("nonzero perf vs zero perf at equal cost: %v, %v; want Dominates", rel, err)
	}
}
