package runner

import (
	"testing"
	"time"
)

func TestBackoffZeroBaseIsImmediate(t *testing.T) {
	var c BackoffConfig
	for attempt := 0; attempt < 5; attempt++ {
		if d := c.delay("cell", attempt); d != 0 {
			t.Errorf("zero config delay(attempt %d) = %v, want 0", attempt, d)
		}
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	c := BackoffConfig{Base: 100 * time.Millisecond}
	// Jitter is +/-25%, so bound each attempt's delay rather than pin it.
	within := func(d, nominal time.Duration) bool {
		return d >= nominal*3/4 && d < nominal*5/4
	}
	if d := c.delay("cell", 0); !within(d, 100*time.Millisecond) {
		t.Errorf("attempt 0 delay = %v, want ~100ms", d)
	}
	if d := c.delay("cell", 1); !within(d, 200*time.Millisecond) {
		t.Errorf("attempt 1 delay = %v, want ~200ms", d)
	}
	if d := c.delay("cell", 3); !within(d, 800*time.Millisecond) {
		t.Errorf("attempt 3 delay = %v, want ~800ms", d)
	}
	for attempt := 4; attempt < 10; attempt++ {
		if d := c.delay("cell", attempt); !within(d, 1600*time.Millisecond) {
			t.Errorf("attempt %d delay = %v, want capped ~1600ms", attempt, d)
		}
	}
}

func TestBackoffDefaultCap(t *testing.T) {
	c := BackoffConfig{Base: 10 * time.Millisecond}
	if d := c.delay("cell", 30); d >= 16*10*time.Millisecond*5/4 {
		t.Errorf("uncapped config delay(30) = %v, want <= 16*Base + jitter", d)
	}
}

func TestBackoffIsDeterministicAndDecorrelated(t *testing.T) {
	c := BackoffConfig{Base: 50 * time.Millisecond}
	// Deterministic: same (cell, attempt) always yields the same delay.
	if a, b := c.delay("x", 1), c.delay("x", 1); a != b {
		t.Errorf("delay is not deterministic: %v != %v", a, b)
	}
	// Decorrelated: different cells on the same attempt should not all
	// land on the same instant (some pair must differ).
	cells := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	same := true
	first := c.delay(cells[0], 0)
	for _, cell := range cells[1:] {
		if c.delay(cell, 0) != first {
			same = false
			break
		}
	}
	if same {
		t.Error("jitter does not decorrelate cells: all delays identical")
	}
}
