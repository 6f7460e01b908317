package runner

import (
	"hash/fnv"
	"time"
)

// BackoffConfig spaces retry attempts with capped exponential backoff.
// The zero value disables waiting (immediate retries — the historical
// behaviour, and the right one for deterministic re-seeded retries
// where waiting cannot help).
type BackoffConfig struct {
	// Base is the delay before the first retry; attempt k waits
	// Base<<k, capped at backoffCap×Base.
	Base time.Duration
}

// backoffCap caps the exponential growth at this multiple of Base.
const backoffCap = 16

// delay returns the wait before retrying the named cell's attempt
// (attempt 0 = the wait between the first failure and the first
// retry). The +/-25% jitter decorrelates retries across cells without
// any randomness: it is derived by hashing (cell, attempt), so a given
// schedule is reproducible run to run.
func (c BackoffConfig) delay(cell string, attempt int) time.Duration {
	if c.Base <= 0 {
		return 0
	}
	max := backoffCap * c.Base
	d := c.Base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Deterministic jitter in [0.75, 1.25).
	h := fnv.New64a()
	h.Write([]byte(cell))
	h.Write([]byte{byte(attempt), byte(attempt >> 8)})
	frac := 0.75 + 0.5*float64(h.Sum64()>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}
