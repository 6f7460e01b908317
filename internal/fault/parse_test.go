package fault

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSpecExamples(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{
			in: "outage:dev=smartnic,at=5ms,for=5ms",
			want: Spec{Clauses: []Clause{
				{Kind: Outage, Target: TargetSmartNIC, At: 0.005, For: 0.005},
			}},
		},
		{
			in: "outage:dev=fpga,mttf=20ms,mttr=2ms;seed:17",
			want: Spec{Clauses: []Clause{
				{Kind: Outage, Target: TargetFPGA, MTTF: 0.02, MTTR: 0.002},
			}, Seed: 17},
		},
		{
			in: "brownout:dev=cores,at=0,for=10ms,factor=0.5",
			want: Spec{Clauses: []Clause{
				{Kind: Brownout, Target: TargetCores, For: 0.01, Severity: 0.5},
			}},
		},
		{
			in: "linkloss:prob=0.01;linkcorrupt:prob=0.002",
			want: Spec{Clauses: []Clause{
				{Kind: LinkLoss, Severity: 0.01},
				{Kind: LinkCorrupt, Severity: 0.002},
			}},
		},
		{
			in: "linkdup:prob=0.02,at=1ms,for=4ms",
			want: Spec{Clauses: []Clause{
				{Kind: LinkDup, At: 0.001, For: 0.004, Severity: 0.02},
			}},
		},
		{
			// Plain-seconds durations parse like Go durations.
			in: "burst:factor=3,at=0.008,for=0.002",
			want: Spec{Clauses: []Clause{
				{Kind: Burst, At: 0.008, For: 0.002, Severity: 3},
			}},
		},
	} {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if len(got.Clauses) != len(tc.want.Clauses) || got.Seed != tc.want.Seed {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
			continue
		}
		for i := range got.Clauses {
			if got.Clauses[i] != tc.want.Clauses[i] {
				t.Errorf("ParseSpec(%q) clause %d = %+v, want %+v", tc.in, i, got.Clauses[i], tc.want.Clauses[i])
			}
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",                                      // empty
		";",                                     // stray separator
		"seed:17",                               // seed only
		"seed:-1;linkloss:prob=0.1",             // bad seed
		"meteor:dev=cores",                      // unknown kind
		"outage",                                // missing target
		"outage:dev=gpu,at=1ms,for=1ms",         // unknown device
		"outage:dev=cores,at=1ms,for=1ms,x=1",   // unknown param
		"outage:dev=cores,at",                   // not key=value
		"outage:dev=cores,at=soon,for=1ms",      // unparseable duration
		"outage:dev=cores,at=-1ms,for=1ms",      // negative at
		"outage:dev=cores,at=1ms,for=-1ms",      // negative for
		"outage:dev=cores,at=1ms,mttf=1ms",      // mixed schedules (mttr missing too)
		"outage:dev=cores,mttf=1ms",             // mttr missing
		"outage:dev=cores,at=1ms,for=1ms,sev=2", // outage takes no severity
		"brownout:dev=cores,factor=1.5",         // factor outside (0,1)
		"brownout:dev=cores,factor=0",           // factor outside (0,1)
		"brownout:factor=0.5",                   // missing target
		"linkloss:prob=1.5",                     // prob outside (0,1]
		"linkloss:prob=0",                       // prob outside (0,1]
		"linkloss:dev=cores,prob=0.1",           // dev on a link clause
		"linkcorrupt:prob=nan",                  // NaN severity
		"linkdup:prob=0",                        // prob outside (0,1]
		"linkdup:prob=1.5",                      // prob outside (0,1]
		"linkdup:dev=smartnic,prob=0.1",         // dev on a link clause
		"burst:factor=1",                        // burst must exceed 1
		"burst:factor=0.5",                      // burst must exceed 1
	} {
		spec, err := ParseSpec(in)
		if err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", in, spec)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("ParseSpec(%q) error %v does not wrap ErrSpec", in, err)
		}
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	for _, in := range []string{
		"outage:dev=smartnic,at=5ms,for=5ms",
		"outage:dev=fpga,mttf=20ms,mttr=2ms;seed:17",
		"brownout:dev=cores,at=1ms,for=10ms,factor=0.5",
		"linkloss:prob=0.01;burst:factor=3,at=8ms,for=2ms",
		"linkdup:prob=0.02,at=1ms,for=4ms;linkcorrupt:prob=0.01;seed:3",
	} {
		first, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		second, err := ParseSpec(first.String())
		if err != nil {
			t.Fatalf("round trip ParseSpec(%q): %v", first.String(), err)
		}
		if first.String() != second.String() {
			t.Errorf("round trip %q -> %q -> %q", in, first.String(), second.String())
		}
	}
}

// FuzzParseSpec checks that arbitrary input never panics and that any
// accepted spec validates and round-trips through String.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"outage:dev=smartnic,at=5ms,for=5ms",
		"outage:dev=fpga,mttf=20ms,mttr=2ms;seed:17",
		"brownout:dev=cores,at=0,for=10ms,factor=0.5",
		"linkloss:prob=0.01",
		"burst:factor=3,at=8ms,for=2ms;seed:9",
		"linkcorrupt:prob=0.002;linkloss:prob=1",
		"linkdup:prob=0.5,mttf=4ms,mttr=1ms;seed:2",
		";;;",
		"outage:dev=cores,at=1e300,for=1e300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			if !errors.Is(err, ErrSpec) && !strings.Contains(err.Error(), "invalid spec") {
				t.Fatalf("ParseSpec(%q) error %v does not wrap ErrSpec", in, err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec %+v: %v", in, spec, err)
		}
		if _, err := ParseSpec(spec.String()); err != nil {
			t.Fatalf("String() of accepted spec %q does not re-parse: %v", spec.String(), err)
		}
	})
}
