package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// SVG scatter plots of the performance-cost plane, reproducing the
// geometry of the paper's Figures 1-3: labelled points, the comparison
// region of a reference system (Figure 2's shaded quadrants), and
// ideal-scaling lines (Figure 3).

// PlanePoint is one system in a plane plot.
type PlanePoint struct {
	Label string
	Cost  float64 // x axis
	Perf  float64 // y axis
	// Hollow renders an open marker (used for scaled/derived points).
	Hollow bool
}

// PlanePlot describes one figure.
type PlanePlot struct {
	Title     string
	CostLabel string // x-axis label, e.g. "Power (W)"
	PerfLabel string // y-axis label, e.g. "Throughput (Gb/s)"
	Points    []PlanePoint
	// Region, when non-nil, shades the comparison region of this point
	// (better-performance-and-cheaper dominating quadrant and its
	// opposite), as in Figure 2. Assumes higher perf is better and
	// lower cost is better.
	Region *PlanePoint
	// ScalingFrom, when non-nil, draws the ideal linear-scaling ray
	// from the origin through this point, as in Figure 3.
	ScalingFrom *PlanePoint
}

const (
	svgW, svgH       = 560, 400
	marginL, marginB = 70, 50
	marginR, marginT = 20, 30
	plotW            = svgW - marginL - marginR
	plotH            = svgH - marginT - marginB
)

// SVG renders the plot.
func (p *PlanePlot) SVG() string {
	maxX, maxY := 1.0, 1.0
	consider := func(pt *PlanePoint) {
		if pt == nil {
			return
		}
		if pt.Cost > maxX {
			maxX = pt.Cost
		}
		if pt.Perf > maxY {
			maxY = pt.Perf
		}
	}
	for i := range p.Points {
		consider(&p.Points[i])
	}
	consider(p.Region)
	consider(p.ScalingFrom)
	maxX *= 1.15
	maxY *= 1.15

	x := func(c float64) float64 { return marginL + c/maxX*plotW }
	y := func(v float64) float64 { return svgH - marginB - v/maxY*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", svgW, svgH, svgW, svgH)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="14" font-family="sans-serif" font-weight="bold">%s</text>`+"\n", marginL, marginT-10, esc(p.Title))

	// Comparison-region shading (Figure 2).
	if p.Region != nil {
		rx, ry := x(p.Region.Cost), y(p.Region.Perf)
		// Dominating quadrant: cheaper (left) and faster (up).
		domX := [2]float64{marginL, rx}
		domY := [2]float64{marginT, ry}
		subX := [2]float64{rx, svgW - marginR}
		subY := [2]float64{ry, svgH - marginB}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#3b82f6" opacity="0.12"/>`+"\n",
			domX[0], domY[0], domX[1]-domX[0], domY[1]-domY[0])
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#f59e0b" opacity="0.12"/>`+"\n",
			subX[0], subY[0], subX[1]-subX[0], subY[1]-subY[0])
	}

	// Ideal-scaling ray (Figure 3).
	if p.ScalingFrom != nil && p.ScalingFrom.Cost > 0 {
		slope := p.ScalingFrom.Perf / p.ScalingFrom.Cost
		endCost := maxX
		endPerf := slope * endCost
		if endPerf > maxY {
			endPerf = maxY
			endCost = endPerf / slope
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#6b7280" stroke-dasharray="6,4" stroke-width="1.5"/>`+"\n",
			x(0), y(0), x(endCost), y(endPerf))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif" fill="#6b7280">ideal scaling</text>`+"\n",
			x(endCost)-70, y(endPerf)+14)
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", marginL, svgH-marginB, svgW-marginR, svgH-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", marginL, marginT, marginL, svgH-marginB)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" font-family="sans-serif">%s</text>`+"\n", marginL+plotW/2-40, svgH-12, esc(p.CostLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" font-size="12" font-family="sans-serif" transform="rotate(-90 14 %d)">%s</text>`+"\n", marginT+plotH/2, marginT+plotH/2, esc(p.PerfLabel))

	// Axis ticks (5 per axis).
	for i := 0; i <= 5; i++ {
		cx := maxX * float64(i) / 5
		cy := maxY * float64(i) / 5
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n", x(cx), svgH-marginB, x(cx), svgH-marginB+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" font-family="sans-serif" text-anchor="middle">%s</text>`+"\n", x(cx), svgH-marginB+16, tick(cx))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n", marginL-4, y(cy), marginL, y(cy))
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="10" font-family="sans-serif" text-anchor="end">%s</text>`+"\n", marginL-6, y(cy)+3, tick(cy))
	}

	// Points (sorted for deterministic output).
	pts := append([]PlanePoint(nil), p.Points...)
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Label < pts[j].Label })
	for _, pt := range pts {
		fill := "#111827"
		if pt.Hollow {
			fill = "white"
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="5" fill="%s" stroke="#111827" stroke-width="1.5"/>`+"\n", x(pt.Cost), y(pt.Perf), fill)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif">%s</text>`+"\n", x(pt.Cost)+8, y(pt.Perf)-6, esc(pt.Label))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func tick(v float64) string {
	if v == 0 {
		return "0"
	}
	if v >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	if v >= 1 {
		return strings.TrimSuffix(fmt.Sprintf("%.1f", v), ".0")
	}
	return fmt.Sprintf("%.2f", v)
}

func esc(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	return strings.ReplaceAll(s, ">", "&gt;")
}

// NiceCeil rounds v up to a "nice" axis bound (1/2/5 × 10^k).
func NiceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}
