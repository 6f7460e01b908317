// Corpus for the allow meta-rule: a suppression must name a known rule,
// carry a reason, and actually suppress something. The policy is the same
// for per-package and whole-program rules.
package allowmetacase

import "time"

func properlySuppressed() time.Time {
	return time.Now() //fairlint:allow wallclock demo timestamp for docs output only
}

func missingReason() time.Time {
	return time.Now() //fairlint:allow wallclock
}

//fairlint:allow rainbow this rule does not exist
func unknownRule() {}

func unused() {
	//fairlint:allow wallclock nothing on this line reads the clock
}

// A whole-program rule without a reason.
//
//fairlint:allow taintreach
func missingReasonWholeProgram() {}

// A whole-program rule with a reason that suppresses nothing.
//
//fairlint:allow seedprov corpus demo with nothing underneath
func unusedWholeProgram() {}
