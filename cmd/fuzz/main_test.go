package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins what fuzz refuses before it runs anything: each
// case changes one value of an otherwise runnable command line.
func TestValidateFlags(t *testing.T) {
	ok := flags{runs: 100, minWait: 0.3, stall: 30 * time.Second}
	cases := []struct {
		name string
		set  func(f *flags)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(f *flags) {}, ""},
		{"one run", func(f *flags) { f.runs = 1 }, ""},
		{"a replay", func(f *flags) { f.replay = 42 }, ""},
		{"a replay's trace", func(f *flags) { f.replay, f.trace = 42, "t.json" }, ""},
		{"bar disabled", func(f *flags) { f.minWait = 0 }, ""},
		{"every run must wait on a held link", func(f *flags) { f.minWait = 1 }, ""},
		{"no runs", func(f *flags) { f.runs = 0 }, "-runs must be at least 1"},
		{"negative runs", func(f *flags) { f.runs = -5 }, "-runs must be at least 1"},
		{"a bar above every run", func(f *flags) { f.minWait = 2 }, "-min-link-wait-frac must be in 0..1"},
		{"just above every run", func(f *flags) { f.minWait = 1.01 }, "-min-link-wait-frac must be in 0..1"},
		{"a negative bar", func(f *flags) { f.minWait = -0.1 }, "-min-link-wait-frac must be in 0..1"},
		{"a NaN bar", func(f *flags) { f.minWait = math.NaN() }, "-min-link-wait-frac must be in 0..1"},
		{"no stall timeout", func(f *flags) { f.stall = 0 }, "-stall must be positive"},
		{"negative stall timeout", func(f *flags) { f.stall = -time.Second }, "-stall must be positive"},
		{"trace without replay", func(f *flags) { f.trace = "t.json" }, "-trace applies to -replay only"},
		{"stray argument", func(f *flags) { f.args = []string{"42"} }, `unexpected arguments ["42"]`},
	}
	for _, c := range cases {
		f := ok
		c.set(&f)
		err := validateFlags(f)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error %q spans more than one line", c.name, err)
		}
	}
}
