// Package fault is the deterministic fault-injection subsystem for the
// simulated heterogeneous substrate. It models the degraded operating
// regimes real deployments run in — transient device outages with
// MTTF/MTTR recovery, brownout/thermal throttling (temporary rate
// derating), link loss, bit corruption and duplication on the NIC path,
// and correlated burst overload — so the comparison methodology can be
// applied *within* a failure regime, not just the healthy one (the
// paper's Principle 2: systems must be compared in the same operating
// regime, and "degraded" is a regime too).
//
// Determinism is inherited from internal/sim: fault transitions are
// materialised up front from explicitly seeded streams and scheduled as
// first-class simulation events, so the same seed and the same spec
// yield a byte-identical trace (Principle 1's context-independence
// extends to failure schedules).
package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the fault models.
type Kind int

const (
	// Outage takes the target device fully down for the window: a
	// crashed SmartNIC firmware, a rebooting switch, an FPGA
	// reconfiguration. Downed devices reject all work.
	Outage Kind = iota
	// Brownout derates the target's service rate by Severity (the
	// remaining rate fraction): thermal throttling, power capping.
	Brownout
	// LinkLoss drops each arriving packet with probability Severity
	// while the window is active (lossy NIC path).
	LinkLoss
	// LinkCorrupt flips one byte of each arriving frame with
	// probability Severity; header validation downstream catches most.
	LinkCorrupt
	// Burst multiplies the offered arrival rate by Severity (> 1)
	// while active: correlated overload, e.g. a failover herd.
	Burst
	// LinkDup delivers each arriving packet a second time with
	// probability Severity (a retransmitting or looping link).
	LinkDup
)

// String names the kind using the spec grammar's keywords.
func (k Kind) String() string {
	switch k {
	case Outage:
		return "outage"
	case Brownout:
		return "brownout"
	case LinkLoss:
		return "linkloss"
	case LinkCorrupt:
		return "linkcorrupt"
	case Burst:
		return "burst"
	case LinkDup:
		return "linkdup"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Target selects which device class a device-level fault hits. Faults
// describe the *environment*, not one deployment: a spec targeting a
// SmartNIC is a no-op on a deployment without one, which is exactly
// what lets the same fault regime be applied to every compared system.
type Target int

const (
	// TargetNone marks clauses without a device target (link/burst).
	TargetNone Target = iota
	// TargetCores hits every host dataplane core.
	TargetCores
	// TargetSmartNIC hits the SmartNIC offload engine.
	TargetSmartNIC
	// TargetSwitch hits the programmable-switch preprocessor.
	TargetSwitch
	// TargetFPGA hits the FPGA pipeline.
	TargetFPGA
)

// allTargets enumerates the device targets for state recomputation.
var allTargets = []Target{TargetCores, TargetSmartNIC, TargetSwitch, TargetFPGA}

// String names the target using the spec grammar's keywords.
func (t Target) String() string {
	switch t {
	case TargetCores:
		return "cores"
	case TargetSmartNIC:
		return "smartnic"
	case TargetSwitch:
		return "switch"
	case TargetFPGA:
		return "fpga"
	default:
		return "none"
	}
}

// Clause is one fault source. It is active either over one scheduled
// window [At, At+For) — For == 0 meaning until the end of the run — or
// recurrently with exponential MTTF/MTTR episodes drawn from the spec's
// seed.
type Clause struct {
	Kind   Kind
	Target Target
	// At and For position a scheduled window, in seconds.
	At, For float64
	// MTTF and MTTR are the mean seconds between failures and to
	// repair; both set selects the recurrent (stochastic) schedule.
	MTTF, MTTR float64
	// Severity is kind-specific: remaining rate fraction for Brownout
	// (0 < s < 1), per-packet probability for LinkLoss/LinkCorrupt/
	// LinkDup (0 < s <= 1), rate multiplier for Burst (s > 1). Unused (0) for
	// Outage.
	Severity float64
}

// ErrSpec is the typed error every spec validation/parse failure wraps,
// so callers can distinguish a malformed spec (usage error) from
// runtime failures.
var ErrSpec = errors.New("fault: invalid spec")

func (c Clause) deviceKind() bool { return c.Kind == Outage || c.Kind == Brownout }

// Validate checks the clause's internal consistency.
func (c Clause) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: clause %s: %s", ErrSpec, c.Kind, fmt.Sprintf(format, args...))
	}
	for _, v := range []struct {
		name string
		v    float64
	}{{"at", c.At}, {"for", c.For}, {"mttf", c.MTTF}, {"mttr", c.MTTR}, {"severity", c.Severity}} {
		// NaN slips past range comparisons (every comparison is false),
		// so non-finite numerics are rejected before the range checks.
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fail("%s=%v is not finite", v.name, v.v)
		}
	}
	if c.deviceKind() && c.Target == TargetNone {
		return fail("a device target (dev=cores|smartnic|switch|fpga) is required")
	}
	if !c.deviceKind() && c.Target != TargetNone {
		return fail("dev= applies only to outage/brownout clauses")
	}
	switch c.Kind {
	case Outage:
		if c.Severity != 0 {
			return fail("outage takes no severity")
		}
	case Brownout:
		if c.Severity <= 0 || c.Severity >= 1 {
			return fail("factor=%v outside (0,1)", c.Severity)
		}
	case LinkLoss, LinkCorrupt, LinkDup:
		if c.Severity <= 0 || c.Severity > 1 {
			return fail("prob=%v outside (0,1]", c.Severity)
		}
	case Burst:
		if c.Severity <= 1 {
			return fail("factor=%v must exceed 1", c.Severity)
		}
	default:
		return fail("unknown kind")
	}
	stochastic := c.MTTF != 0 || c.MTTR != 0
	if stochastic {
		if c.MTTF <= 0 || c.MTTR <= 0 {
			return fail("mttf and mttr must both be positive (got mttf=%v, mttr=%v)", c.MTTF, c.MTTR)
		}
		if c.At != 0 || c.For != 0 {
			return fail("at/for and mttf/mttr are mutually exclusive schedules")
		}
		return nil
	}
	if c.At < 0 {
		return fail("at=%v is negative", c.At)
	}
	if c.For < 0 {
		return fail("for=%v is negative", c.For)
	}
	return nil
}

// String renders the clause in the spec grammar (parseable round trip).
func (c Clause) String() string {
	var parts []string
	if c.Target != TargetNone {
		parts = append(parts, "dev="+c.Target.String())
	}
	if c.MTTF > 0 {
		parts = append(parts, fmt.Sprintf("mttf=%g,mttr=%g", c.MTTF, c.MTTR))
	} else if c.At != 0 || c.For != 0 {
		parts = append(parts, fmt.Sprintf("at=%g,for=%g", c.At, c.For))
	}
	switch c.Kind {
	case Brownout, Burst:
		parts = append(parts, fmt.Sprintf("factor=%g", c.Severity))
	case LinkLoss, LinkCorrupt, LinkDup:
		parts = append(parts, fmt.Sprintf("prob=%g", c.Severity))
	}
	if len(parts) == 0 {
		return c.Kind.String()
	}
	return c.Kind.String() + ":" + strings.Join(parts, ",")
}

// DefaultSeed drives fault schedules when the spec does not name one.
const DefaultSeed = 11

// Spec is a full fault specification: a set of clauses plus the seed
// their stochastic schedules and per-packet link draws flow from. The
// zero value is the healthy regime (no faults).
type Spec struct {
	Clauses []Clause
	// Seed drives MTTF/MTTR episode draws and link loss, corruption and
	// duplication coin flips (DefaultSeed when 0).
	Seed uint64
}

// Empty reports whether the spec injects nothing (the healthy regime).
func (s Spec) Empty() bool { return len(s.Clauses) == 0 }

// Validate checks every clause.
func (s Spec) Validate() error {
	for i, c := range s.Clauses {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("clause %d: %w", i, err)
		}
	}
	return nil
}

// String renders the spec in the parseable grammar.
func (s Spec) String() string {
	parts := make([]string, 0, len(s.Clauses)+1)
	for _, c := range s.Clauses {
		parts = append(parts, c.String())
	}
	if s.Seed != 0 && s.Seed != DefaultSeed {
		parts = append(parts, fmt.Sprintf("seed:%d", s.Seed))
	}
	return strings.Join(parts, ";")
}

// Window is one materialised activity interval of a clause over a
// concrete run horizon: the unit the injector schedules, reports, and
// traces as a fault span.
type Window struct {
	// Clause indexes Spec.Clauses.
	Clause int
	Kind   Kind
	Target Target
	// Start and End bound the window in simulated seconds, clamped to
	// the run horizon.
	Start, End float64
	// Severity copies the clause severity.
	Severity float64
}

// Duration returns the window length in seconds.
func (w Window) Duration() float64 { return w.End - w.Start }
