package report

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Example", "System", "Perf", "Cost")
	t.AddRow("baseline", "10 Gb/s", "50 W")
	t.AddRow("proposed", "20 Gb/s", "70 W")
	return t
}

func TestTableText(t *testing.T) {
	out := sampleTable().Text()
	if !strings.Contains(out, "Example") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Alignment: columns start at the same offset in every row.
	hdrIdx := strings.Index(lines[1], "Perf")
	rowIdx := strings.Index(lines[3], "10 Gb/s")
	if hdrIdx != rowIdx {
		t.Errorf("columns misaligned: header@%d row@%d\n%s", hdrIdx, rowIdx, out)
	}
}

func TestTableMarkdown(t *testing.T) {
	out := sampleTable().Markdown()
	if !strings.Contains(out, "| System | Perf | Cost |") {
		t.Errorf("markdown header wrong:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- | --- |") {
		t.Error("missing separator row")
	}
	// Pipes in cells must be escaped.
	tb := NewTable("", "A")
	tb.AddRow("x|y")
	if !strings.Contains(tb.Markdown(), `x\|y`) {
		t.Error("pipe not escaped")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`with,comma`, `with"quote`)
	out := tb.CSV()
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Errorf("quote cell not escaped: %s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("header wrong: %s", out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row not padded: %v", tb.Rows[0])
	}
	tb.AddRow("1", "2", "3", "4") // extra cell truncated
	if len(tb.Rows[1]) != 3 {
		t.Errorf("row not truncated: %v", tb.Rows[1])
	}
}

func TestAddRowf(t *testing.T) {
	tb := NewTable("", "x", "y")
	tb.AddRowf("%.1f|%d", 1.25, 7)
	if tb.Rows[0][0] != "1.2" || tb.Rows[0][1] != "7" {
		t.Errorf("AddRowf row = %v", tb.Rows[0])
	}
}

func TestCheck(t *testing.T) {
	if Check(true) != "✓" || Check(false) != "✗" {
		t.Error("Check marks")
	}
}

func TestPlanePlotSVG(t *testing.T) {
	p := &PlanePlot{
		Title:     "Figure 2: comparison region",
		CostLabel: "Power (W)",
		PerfLabel: "Throughput (Gb/s)",
		Points: []PlanePoint{
			{Label: "A", Cost: 200, Perf: 100},
			{Label: "B", Cost: 100, Perf: 35},
			{Label: "B-scaled", Cost: 200, Perf: 70, Hollow: true},
		},
		Region:      &PlanePoint{Cost: 200, Perf: 100},
		ScalingFrom: &PlanePoint{Cost: 100, Perf: 35},
	}
	svg := p.SVG()
	for _, frag := range []string{
		"<svg", "</svg>", "Figure 2", "Power (W)", "Throughput (Gb/s)",
		"ideal scaling", `opacity="0.12"`, ">A</text>", ">B</text>",
	} {
		if !strings.Contains(svg, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	// Three markers drawn.
	if strings.Count(svg, "<circle") != 3 {
		t.Errorf("circles = %d", strings.Count(svg, "<circle"))
	}
	// Deterministic output.
	if p.SVG() != svg {
		t.Error("SVG not deterministic")
	}
}

func TestPlanePlotEscaping(t *testing.T) {
	p := &PlanePlot{Title: "a<b&c", CostLabel: "x", PerfLabel: "y",
		Points: []PlanePoint{{Label: "p<q", Cost: 1, Perf: 1}}}
	svg := p.SVG()
	if strings.Contains(svg, "a<b") || !strings.Contains(svg, "a&lt;b&amp;c") {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "p&lt;q") {
		t.Error("label not escaped")
	}
}

func TestNiceCeil(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 1}, {-5, 1}, {0.7, 1}, {1, 1}, {1.2, 2}, {3, 5}, {7, 10}, {45, 50}, {120, 200},
	}
	for _, c := range cases {
		if got := NiceCeil(c.in); got != c.want {
			t.Errorf("NiceCeil(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
