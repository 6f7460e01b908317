package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Label is one metric dimension. Metrics with the same name but
// different label sets are distinct series.
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value. A nil *Counter (from a
// nil registry) is a no-op.
type Counter struct{ v float64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.v += d
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value. A nil *Gauge is a no-op.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// metric is one registered series of any kind.
type metric struct {
	name   string
	labels []Label
	kind   string
	c      *Counter
	g      *Gauge
}

// Registry holds labeled metrics and exports deterministic snapshots.
// Like the rest of the package it follows a single simulation timeline
// and is not safe for concurrent use; a nil *Registry no-ops and hands
// out nil instruments.
type Registry struct {
	byKey map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// seriesKey canonicalises name+labels (labels sorted by key).
func seriesKey(name string, labels []Label) (string, []Label) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String(), ls
}

func (r *Registry) lookup(name, kind string, labels []Label) *metric {
	key, ls := seriesKey(name, labels)
	m := r.byKey[key]
	if m == nil {
		m = &metric{name: name, labels: ls, kind: kind}
		r.byKey[key] = m
	}
	return m
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, "counter", labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, "gauge", labels)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Point is one metric series in a snapshot. Count backs the CSV's count
// column, kept so the export format stays stable; counters and gauges
// leave it 0.
type Point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  float64           `json:"value"`
	Count  uint64            `json:"count,omitempty"`
}

// Snapshot returns every series, sorted by name then labels, so exports
// are deterministic and diffable.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	keys := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Point, 0, len(keys))
	for _, k := range keys {
		m := r.byKey[k]
		p := Point{Name: m.name, Kind: m.kind}
		if len(m.labels) > 0 {
			p.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		switch m.kind {
		case "counter":
			p.Value = m.c.Value()
		case "gauge":
			p.Value = m.g.Value()
		}
		out = append(out, p)
	}
	return out
}

// ExportJSONL writes the snapshot as one JSON object per line.
func (r *Registry) ExportJSONL(w io.Writer) error {
	for _, p := range r.Snapshot() {
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ExportCSV writes the snapshot as CSV (name,labels,kind,value,count),
// one row per series.
func (r *Registry) ExportCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "name,labels,kind,value,count\n"); err != nil {
		return err
	}
	for _, p := range r.Snapshot() {
		keys := make([]string, 0, len(p.Labels))
		for k := range p.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pairs := make([]string, 0, len(keys))
		for _, k := range keys {
			pairs = append(pairs, k+"="+p.Labels[k])
		}
		labels := strings.Join(pairs, ";")
		if strings.ContainsAny(labels, ",\"\n") {
			labels = `"` + strings.ReplaceAll(labels, `"`, `""`) + `"`
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%g,%d\n", p.Name, labels, p.Kind, p.Value, p.Count); err != nil {
			return err
		}
	}
	return nil
}
