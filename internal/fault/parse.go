package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the textual fault-spec grammar used by
// `fairsim -faults` and the scenario catalogue:
//
//	spec    := clause (";" clause)*
//	clause  := kind [":" param ("," param)*] | "seed:" N
//	kind    := outage | brownout | linkloss | linkcorrupt | linkdup | burst
//	param   := key "=" value
//	key     := dev | at | for | mttf | mttr | factor | prob
//
// Durations (at, for, mttf, mttr) accept Go duration syntax ("5ms",
// "2us") or plain seconds ("0.005"). Examples:
//
//	outage:dev=smartnic,at=5ms,for=5ms
//	outage:dev=fpga,mttf=20ms,mttr=2ms
//	brownout:dev=cores,at=0,for=10ms,factor=0.5
//	linkloss:prob=0.01
//	linkcorrupt:prob=0.002;linkdup:prob=0.01
//	burst:factor=3,at=8ms,for=2ms;seed:17
//
// Every parse failure wraps ErrSpec so callers can surface it as a
// usage error.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{}
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, fmt.Errorf("%w: empty spec", ErrSpec)
	}
	for _, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return Spec{}, fmt.Errorf("%w: empty clause (stray %q?)", ErrSpec, ";")
		}
		head, rest, hasParams := strings.Cut(raw, ":")
		head = strings.ToLower(strings.TrimSpace(head))
		if head == "seed" {
			seed, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("%w: seed %q is not an unsigned integer", ErrSpec, rest)
			}
			spec.Seed = seed
			continue
		}
		kind, err := parseKind(head)
		if err != nil {
			return Spec{}, err
		}
		c := Clause{Kind: kind}
		if hasParams {
			if err := parseParams(&c, rest); err != nil {
				return Spec{}, fmt.Errorf("clause %q: %w", raw, err)
			}
		}
		if err := c.Validate(); err != nil {
			return Spec{}, err
		}
		spec.Clauses = append(spec.Clauses, c)
	}
	if spec.Empty() {
		return Spec{}, fmt.Errorf("%w: no fault clauses (only seed)", ErrSpec)
	}
	return spec, nil
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "outage":
		return Outage, nil
	case "brownout":
		return Brownout, nil
	case "linkloss":
		return LinkLoss, nil
	case "linkcorrupt":
		return LinkCorrupt, nil
	case "linkdup":
		return LinkDup, nil
	case "burst":
		return Burst, nil
	default:
		return 0, fmt.Errorf("%w: unknown fault kind %q (want outage, brownout, linkloss, linkcorrupt, linkdup or burst)", ErrSpec, s)
	}
}

func parseParams(c *Clause, s string) error {
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		key, val, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("%w: parameter %q is not key=value", ErrSpec, p)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "dev":
			c.Target, err = parseTarget(val)
		case "at":
			c.At, err = parseSeconds(key, val)
		case "for":
			c.For, err = parseSeconds(key, val)
		case "mttf":
			c.MTTF, err = parseSeconds(key, val)
		case "mttr":
			c.MTTR, err = parseSeconds(key, val)
		case "factor", "prob", "sev":
			c.Severity, err = parseFloat(key, val)
		default:
			err = fmt.Errorf("%w: unknown parameter %q", ErrSpec, key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseTarget(s string) (Target, error) {
	switch strings.ToLower(s) {
	case "cores", "core", "cpu", "host":
		return TargetCores, nil
	case "smartnic", "snic", "nic":
		return TargetSmartNIC, nil
	case "switch", "sw":
		return TargetSwitch, nil
	case "fpga":
		return TargetFPGA, nil
	default:
		return TargetNone, fmt.Errorf("%w: unknown device %q (want cores, smartnic, switch or fpga)", ErrSpec, s)
	}
}

// parseSeconds accepts Go durations ("5ms") or plain seconds ("0.005").
func parseSeconds(key, s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q is neither a duration nor seconds", ErrSpec, key, s)
	}
	return f, nil
}

func parseFloat(key, s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q is not a number", ErrSpec, key, s)
	}
	return f, nil
}
