package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricRow is one series of the end-of-run metrics export, labeled by
// one key=value pair.
type metricRow struct {
	name, key, label, kind string
	value                  float64
}

// metrics returns the series the tracer's aggregates hold: each sampled
// device's last utilization, queue depth and power as gauges, and the
// span count per verdict as counters. Rows are ordered by series key
// `name{key=label}`, so a label sorts as if followed by '}'.
func (t *Tracer) metrics() []metricRow {
	if t == nil {
		return nil
	}
	devs := t.us.Devices()
	sort.Slice(devs, func(i, j int) bool { return devs[i].Device+"}" < devs[j].Device+"}" })
	var rows []metricRow
	for _, g := range []struct {
		name  string
		value func(Event) float64
	}{
		{"device_power_watts", func(e Event) float64 { return e.Watts }},
		{"device_queue_depth", func(e Event) float64 { return float64(e.Queue) }},
		{"device_utilization", func(e Event) float64 { return e.Util }},
	} {
		for _, d := range devs {
			rows = append(rows, metricRow{g.name, "device", d.Device, "gauge", g.value(d.last)})
		}
	}
	vs := append([]verdictCount(nil), t.bd.verdicts...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].verdict+"}" < vs[j].verdict+"}" })
	for _, v := range vs {
		rows = append(rows, metricRow{"spans_total", "verdict", v.verdict, "counter", float64(v.spans)})
	}
	return rows
}

// WriteMetrics writes the end-of-run metrics: one JSON object per line
// when jsonl is set, else CSV (name,labels,kind,value,count) with one
// row per series and count always 0.
func (t *Tracer) WriteMetrics(w io.Writer, jsonl bool) error {
	if !jsonl {
		if _, err := io.WriteString(w, "name,labels,kind,value,count\n"); err != nil {
			return err
		}
	}
	for _, r := range t.metrics() {
		var line []byte
		if jsonl {
			b, err := json.Marshal(struct {
				Name   string            `json:"name"`
				Labels map[string]string `json:"labels"`
				Kind   string            `json:"kind"`
				Value  float64           `json:"value"`
			}{r.name, map[string]string{r.key: r.label}, r.kind, r.value})
			if err != nil {
				return err
			}
			line = append(b, '\n')
		} else {
			labels := r.key + "=" + r.label
			if strings.ContainsAny(labels, ",\"\n") {
				labels = `"` + strings.ReplaceAll(labels, `"`, `""`) + `"`
			}
			line = fmt.Appendf(nil, "%s,%s,%s,%g,0\n", r.name, labels, r.kind, r.value)
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
