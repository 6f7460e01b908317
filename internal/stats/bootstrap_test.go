package stats

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestBootstrapDeterminism(t *testing.T) {
	s := []float64{3.1, 2.9, 3.0, 3.3, 2.8, 3.2}
	a, err := Bootstrap(s, 11, Median)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bootstrap(s, 11, Median)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must give identical bootstrap distributions")
	}
	c, err := Bootstrap(s, 12, Median)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should give different distributions")
	}
}

func TestBootstrapCICoversTruth(t *testing.T) {
	// Samples clustered near 10: the CI must cover 10 and be narrow.
	s := []float64{9.8, 10.1, 10.0, 9.9, 10.2, 10.05, 9.95}
	ci, err := MedianCI(s, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > 10 || ci.Hi < 10 {
		t.Errorf("CI %v should contain 10", ci)
	}
	if ci.HalfWidth() <= 0 || ci.HalfWidth() > 0.5 {
		t.Errorf("half-width %v implausible for this spread", ci.HalfWidth())
	}
}

func TestBootstrapZeroVariance(t *testing.T) {
	ci, err := MedianCI([]float64{7, 7, 7, 7, 7}, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo != 7 || ci.Hi != 7 {
		t.Errorf("zero-variance CI = %v, want degenerate [7, 7]", ci)
	}
	if hw := ci.HalfWidth(); hw != 0 {
		t.Errorf("zero-variance half-width = %v, want 0", hw)
	}
}

func TestBootstrapErrors(t *testing.T) {
	if _, err := Bootstrap(nil, 1, Median); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty samples: %v, want ErrNoSamples", err)
	}
	if _, err := Bootstrap([]float64{1, math.NaN()}, 1, Median); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN sample: %v, want ErrNonFinite", err)
	}
	for _, lvl := range []float64{0, 1, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := MedianCI([]float64{1, 2, 3}, lvl, 1); !errors.Is(err, ErrLevel) {
			t.Errorf("level %v: err = %v, want ErrLevel", lvl, err)
		}
	}
}

func TestPercentileIntervalOrdering(t *testing.T) {
	dist := []float64{5, 1, 4, 2, 3, 9, 0, 8, 7, 6}
	ci, err := PercentileInterval(dist, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo >= ci.Hi {
		t.Errorf("interval inverted: %v", ci)
	}
	if ci.Lo < 0 || ci.Hi > 9 {
		t.Errorf("interval %v outside data range", ci)
	}
}
