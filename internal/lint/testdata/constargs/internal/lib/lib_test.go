package lib

import "testing"

// Test callers do not count: Always stays reported.
func TestAlways(t *testing.T) {
	if Always(9, "b", 0) != 10 {
		t.Fatal("Always")
	}
}
