// Package constcorpus is the root package of TestNoConstantArguments'
// golden corpus. Its functions are public API and exempt, however
// they are called.
package constcorpus

import "constcorpus/internal/lib"

// Root is always passed 1, but root-package functions are exempt.
func Root(x int) int { return x }

// Use makes every call the corpus classifies.
func Use(n int) int {
	return Root(1) + Root(1) + lib.Use(n)
}
