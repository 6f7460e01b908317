package core

import (
	"math/rand"
	"testing"
)

func TestRegionClassifyFigure2(t *testing.T) {
	// Figure 2: the comparison region of proposed system A. Points that
	// dominate A or are dominated by A are in the region; the other two
	// quadrants are the "?" zones.
	p := DefaultPlane()
	a := gp(50, 100)
	region, err := NewRegion(p, a)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		candidate Point
		want      RegionClass
	}{
		{"B dominates A (up-left)", gp(80, 60), InRegionDominates},
		{"B dominated by A (down-right)", gp(30, 150), InRegionDominated},
		{"B equals A", gp(50, 100), InRegionEqual},
		{"B faster but costlier (up-right ?)", gp(80, 150), OutsideFasterCostlier},
		{"B cheaper but slower (down-left ?)", gp(30, 60), OutsideCheaperWorse},
		{"B same cost, faster: in region", gp(80, 100), InRegionDominates},
		{"B same perf, cheaper: in region", gp(50, 60), InRegionDominates},
	}
	for _, c := range cases {
		got, err := region.Classify(c.candidate)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: Classify(%s) = %v, want %v", c.name, c.candidate, got, c.want)
		}
	}
}

func TestRegionValidation(t *testing.T) {
	p := DefaultPlane()
	if _, err := NewRegion(p, lp(5, 100)); err == nil {
		t.Error("latency point on throughput plane should fail")
	}
}

func TestRegionClassStrings(t *testing.T) {
	if InRegionDominates.String() != "in-region:dominates" {
		t.Errorf("got %q", InRegionDominates.String())
	}
}

// frontier is the Pareto frontier of unnamed points.
func frontier(t *testing.T, p Plane, pts []Point) []Point {
	t.Helper()
	named := make([]NamedPoint, len(pts))
	for i, pt := range pts {
		named[i] = NamedPoint{Point: pt}
	}
	front, _, err := NamedFrontier(p, named)
	if err != nil {
		t.Fatal(err)
	}
	var out []Point
	for _, f := range front {
		out = append(out, f.Point)
	}
	return out
}

func TestFrontierSimple(t *testing.T) {
	p := DefaultPlane()
	pts := []Point{
		gp(10, 50),  // on frontier
		gp(20, 100), // on frontier
		gp(15, 120), // dominated by (20,100)
		gp(30, 200), // on frontier
		gp(9, 60),   // dominated by (10,50)
	}
	front := frontier(t, p, pts)
	if len(front) != 3 {
		t.Fatalf("frontier size = %d, want 3: %v", len(front), front)
	}
	want := []Point{gp(10, 50), gp(20, 100), gp(30, 200)}
	for i := range want {
		if front[i] != want[i] {
			t.Errorf("front[%d] = %s, want %s", i, front[i], want[i])
		}
	}
}

func TestFrontierProperties(t *testing.T) {
	// Properties: every input point is dominated by (or equal to) some
	// frontier point; no frontier point dominates another.
	p := DefaultPlane()
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(30) + 1
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = gp(float64(r.Intn(100)+1), float64(r.Intn(100)+1))
		}
		front := frontier(t, p, pts)
		if len(front) == 0 {
			t.Fatal("frontier of nonempty set cannot be empty")
		}
		for _, a := range pts {
			covered := false
			for _, f := range front {
				rel, _ := Compare(p, f, a, DefaultTolerance)
				if rel == Dominates || rel == Equal {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("point %s not covered by frontier %v", a, front)
			}
		}
		for i, a := range front {
			for j, b := range front {
				if i == j {
					continue
				}
				rel, _ := Compare(p, a, b, DefaultTolerance)
				if rel == Dominates {
					t.Fatalf("frontier point %s dominates frontier point %s", a, b)
				}
			}
		}
	}
}

func TestFrontierEmpty(t *testing.T) {
	if front := frontier(t, DefaultPlane(), nil); front != nil {
		t.Errorf("empty frontier = %v", front)
	}
}

func TestFrontierLatencyPlane(t *testing.T) {
	// Lower-is-better perf axis: frontier must prefer *low* latency.
	p := LatencyPlane()
	pts := []Point{lp(5, 200), lp(8, 100), lp(10, 300)}
	front := frontier(t, p, pts)
	// (10,300) is dominated by (8,100); the other two are incomparable.
	if len(front) != 2 {
		t.Fatalf("frontier = %v, want 2 points", front)
	}
	for _, f := range front {
		if f == lp(10, 300) {
			t.Error("dominated point on frontier")
		}
	}
}

func TestNamedFrontier(t *testing.T) {
	p := DefaultPlane()
	systems := []NamedPoint{
		{Name: "cheap", Point: gp(10, 50)},
		{Name: "mid", Point: gp(20, 100)},
		{Name: "bad", Point: gp(15, 120)},
		{Name: "fast", Point: gp(30, 200)},
	}
	front, dominated, err := NamedFrontier(p, systems)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 3 || len(dominated) != 1 {
		t.Fatalf("front=%d dominated=%d", len(front), len(dominated))
	}
	if dominated[0].Name != "bad" {
		t.Errorf("dominated = %v", dominated[0].Name)
	}
	names := []string{front[0].Name, front[1].Name, front[2].Name}
	want := []string{"cheap", "mid", "fast"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("frontier order = %v, want %v", names, want)
		}
	}
}

func TestNamedFrontierUnitError(t *testing.T) {
	p := DefaultPlane()
	bad := []NamedPoint{{Name: "x", Point: lp(5, 100)}}
	if _, _, err := NamedFrontier(p, bad); err == nil {
		t.Error("latency point on throughput plane should fail")
	}
}
