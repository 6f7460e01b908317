// Package unsetcorpus is the root package of TestNoUnsetOptions'
// golden corpus. Its fields are public API and exempt, set or not.
package unsetcorpus

import "unsetcorpus/internal/opts"

// API is a root-package struct: its unset field is not reported.
type API struct {
	Unset int
}

// Use reads every option and performs each write form once.
func Use(a API) int {
	return a.Unset + opts.Use()
}
