package telemetry

import "testing"

func TestIsTelemetryFile(t *testing.T) {
	for name, want := range map[string]bool{
		SummaryName:     true,
		GanttName:       true,
		"journal.jsonl": false,
		"figure1.svg":   false,
		"manifest.json": false,
	} {
		if got := IsTelemetryFile(name); got != want {
			t.Errorf("IsTelemetryFile(%q) = %v, want %v", name, got, want)
		}
	}
}
