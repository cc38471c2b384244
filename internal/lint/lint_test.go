package lint

import (
	"strings"
	"testing"
)

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want full registry", len(all), err)
	}
	got, err := Select("doclint, glignlint/parcapture")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "doclint" || got[1].Name != "parcapture" {
		t.Errorf("Select picked %v", got)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Error("Select(nosuch) did not error")
	}
}

func TestRegistryIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	prev := ""
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a field", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Name < prev {
			t.Errorf("registry not alphabetical: %q after %q", a.Name, prev)
		}
		prev = a.Name
	}
}

func TestDirectiveRE(t *testing.T) {
	cases := []struct {
		in     string
		match  bool
		names  string
		reason string
	}{
		{"//lint:ignore glignlint/atomicmix workers joined", true, "glignlint/atomicmix", "workers joined"},
		{"// lint:ignore glignlint/a,glignlint/b shared reason", true, "glignlint/a,glignlint/b", "shared reason"},
		{"//lint:ignore glignlint/atomicmix", false, "", ""}, // reason is mandatory
		{"// just a comment", false, "", ""},
	}
	for _, c := range cases {
		m := directiveRE.FindStringSubmatch(c.in)
		if (m != nil) != c.match {
			t.Errorf("%q: match = %v, want %v", c.in, m != nil, c.match)
			continue
		}
		if m != nil && (m[1] != c.names || m[2] != c.reason) {
			t.Errorf("%q parsed as (%q, %q), want (%q, %q)", c.in, m[1], m[2], c.names, c.reason)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "atomicmix", File: "x.go", Line: 3, Col: 7, Message: "boom"}
	if got := f.String(); got != "x.go:3:7: atomicmix: boom" {
		t.Errorf("String() = %q", got)
	}
	f.Suppressed, f.SuppressReason = true, "quiesced"
	if got := f.String(); !strings.HasSuffix(got, "(suppressed: quiesced)") {
		t.Errorf("suppressed String() = %q", got)
	}
}
