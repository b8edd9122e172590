package main

import (
	"math"
	"strings"
	"testing"
)

var modes = []string{"seq", "tw", "model", "dist"}

// scoped lists every mode-scoped flag with the modes that accept it.
var scoped = map[string][]string{
	"vcd":            {"seq"},
	"chaos":          {"tw"},
	"chaos-seed":     {"tw"},
	"blame":          {"tw"},
	"trace":          {"tw", "dist"},
	"metrics":        {"tw", "dist"},
	"report":         {"tw", "dist"},
	"serve":          {"tw", "dist"},
	"listen":         {"dist"},
	"workers":        {"dist"},
	"postmortem-dir": {"dist"},
}

// validate calls validateFlags with in-range values for mode, so only the
// flags named in set can be what it objects to.
func validate(mode string, set ...string) error {
	workers := 0
	if mode == "dist" {
		workers = 2
	}
	m := map[string]bool{}
	for _, f := range set {
		m[f] = true
	}
	return validateFlags(mode, 2, 10, 100, workers, m)
}

func accepts(modes []string, mode string) bool {
	for _, m := range modes {
		if m == mode {
			return true
		}
	}
	return false
}

// TestValidateFlagsModeScope walks every mode × every mode-scoped flag: a
// flag is accepted exactly in the modes that read it and is an error, not
// a silent no-op, everywhere else.
func TestValidateFlagsModeScope(t *testing.T) {
	for _, mode := range modes {
		if err := validate(mode); err != nil {
			t.Errorf("-mode %s with no scoped flag: %v", mode, err)
		}
		for flag, in := range scoped {
			err := validate(mode, flag)
			switch {
			case accepts(in, mode) && err != nil:
				t.Errorf("-mode %s -%s: rejected: %v", mode, flag, err)
			case !accepts(in, mode) && err == nil:
				t.Errorf("-mode %s -%s: accepted, want an error", mode, flag)
			case err != nil && !strings.Contains(err.Error(), "-"+flag+" only applies to -mode "):
				t.Errorf("-mode %s -%s: error %q does not name the flag and its modes", mode, flag, err)
			}
		}
		// -serve-hold follows -serve's modes, and is nothing without it.
		err := validate(mode, "serve", "serve-hold")
		if ok := accepts(scoped["serve"], mode); ok != (err == nil) {
			t.Errorf("-mode %s -serve -serve-hold: err = %v, accepted want %v", mode, err, ok)
		}
		if err := validate(mode, "serve-hold"); err == nil {
			t.Errorf("-mode %s -serve-hold without -serve: accepted, want an error", mode)
		}
	}
	if err := validate("tw", "serve-hold"); err == nil || !strings.Contains(err.Error(), "-serve-hold needs -serve") {
		t.Errorf("-mode tw -serve-hold without -serve: error %v, want \"-serve-hold needs -serve\"", err)
	}
}

func TestValidateFlagsUnknownMode(t *testing.T) {
	for _, mode := range []string{"", "TW", "sequential", "distributed"} {
		err := validate(mode)
		if err == nil || !strings.Contains(err.Error(), "unknown -mode") {
			t.Errorf("-mode %q: error %v, want \"unknown -mode\"", mode, err)
		}
	}
}

func TestValidateFlagsRanges(t *testing.T) {
	none := map[string]bool{}
	cases := []struct {
		name    string
		mode    string
		k       int
		b       float64
		cycles  uint64
		workers int
		want    string // substring of the error; "" = accepted
	}{
		{"defaults", "seq", 2, 10, 10000, 0, ""},
		{"zero cycles", "seq", 2, 10, 0, 0, "-cycles must be >= 1"},
		{"k ignored in seq", "seq", 0, 0, 1, 0, ""},
		{"zero k tw", "tw", 0, 10, 1, 0, "-k must be >= 2"},
		{"negative k model", "model", -3, 10, 1, 0, "-k must be >= 2"},
		{"zero k dist", "dist", 0, 10, 1, 1, "-k must be >= 2"},
		{"k=1", "tw", 1, 0.5, 1, 0, "-k must be >= 2"},
		{"k=1 dist", "dist", 1, 10, 1, 1, "-k must be >= 2"},
		{"zero b", "tw", 2, 0, 1, 0, "-b must be > 0"},
		{"negative b", "model", 2, -5, 1, 0, "-b must be > 0"},
		{"NaN b", "tw", 2, math.NaN(), 1, 0, "-b must be > 0"},
		{"infinite b", "dist", 2, math.Inf(1), 1, 1, "-b must be finite"},
		{"k=2", "tw", 2, 0.5, 1, 0, ""},
		{"dist without workers", "dist", 4, 10, 1, 0, "-mode dist needs -workers >= 1"},
		{"dist negative workers", "dist", 4, 10, 1, -1, "-mode dist needs -workers >= 1"},
		{"more workers than clusters", "dist", 2, 10, 1, 3, "-workers 3 exceeds -k 2"},
		{"one worker per cluster", "dist", 2, 10, 1, 2, ""},
	}
	for _, c := range cases {
		err := validateFlags(c.mode, c.k, c.b, c.cycles, c.workers, none)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}
