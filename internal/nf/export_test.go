package nf

// SyntheticRules exposes the benches' 1000-rule shape to the external
// matcher tests, which need testbed's canonical rules and so cannot
// live in package nf.
var SyntheticRules = syntheticRules

// AddrFrom exposes the tests' integer-to-address helper to the external
// matcher tests.
var AddrFrom = addrFrom
