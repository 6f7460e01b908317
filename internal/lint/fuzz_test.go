package lint

import (
	"strings"
	"testing"
)

// FuzzParseAllow hammers the //fairlint:allow comment parser: it must
// never panic, must only accept exact-prefix directives, and must return
// a whitespace-free rule with a space-normalized reason.
func FuzzParseAllow(f *testing.F) {
	f.Add("//fairlint:allow wallclock operator log only")
	f.Add("//fairlint:allow wallclock")
	f.Add("//fairlint:allow")
	f.Add("//fairlint:allow\tmaporder\ttabbed reason")
	f.Add("//fairlint:allowwallclock smushed")
	f.Add("// fairlint:allow wallclock leading space")
	f.Add("//fairlint:allow  rule  with   many   spaces  ")
	f.Add("/* block */")
	f.Add("//fairlint:allow \x00 nul")
	f.Add("//fairlint:allow é üñí reason")
	f.Fuzz(func(t *testing.T, text string) {
		rule, reason, ok := ParseAllow(text)
		if !ok {
			if rule != "" || reason != "" {
				t.Fatalf("rejected input returned data: rule=%q reason=%q", rule, reason)
			}
			return
		}
		if !strings.HasPrefix(text, allowPrefix) {
			t.Fatalf("accepted text without directive prefix: %q", text)
		}
		if strings.ContainsAny(rule, " \t\n\r") {
			t.Fatalf("rule contains whitespace: %q", rule)
		}
		if reason != strings.Join(strings.Fields(reason), " ") {
			t.Fatalf("reason not space-normalized: %q", reason)
		}
		if rule == "" && reason != "" {
			t.Fatalf("reason without rule: %q", reason)
		}
	})
}

// FuzzParseHotpath hammers the //fairbench:hotpath directive parser:
// it must never panic, must only accept exact-prefix directives with a
// word boundary after the marker, and must return a space-normalized
// note.
func FuzzParseHotpath(f *testing.F) {
	f.Add("//fairbench:hotpath")
	f.Add("//fairbench:hotpath alloc gate row packet-parse")
	f.Add("//fairbench:hotpath\ttabbed note")
	f.Add("//fairbench:hotpathology not a directive")
	f.Add("// fairbench:hotpath leading space")
	f.Add("//fairbench:hotpath   many    spaces   ")
	f.Add("/* block */")
	f.Add("//fairbench:hotpath \x00 nul")
	f.Add("//fairbench:hotpath é üñí note")
	f.Fuzz(func(t *testing.T, text string) {
		note, ok := ParseHotpath(text)
		if !ok {
			if note != "" {
				t.Fatalf("rejected input returned data: note=%q", note)
			}
			return
		}
		if !strings.HasPrefix(text, hotpathPrefix) {
			t.Fatalf("accepted text without directive prefix: %q", text)
		}
		if rest := strings.TrimPrefix(text, hotpathPrefix); rest != "" && !isSpace(rest[0]) {
			t.Fatalf("accepted text without word boundary after marker: %q", text)
		}
		if note != strings.Join(strings.Fields(note), " ") {
			t.Fatalf("note not space-normalized: %q", note)
		}
	})
}
