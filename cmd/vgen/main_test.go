package main

import (
	"strings"
	"testing"
)

// TestValidateFlags pins what vgen refuses before it generates anything:
// each case changes one value of an otherwise buildable command line.
func TestValidateFlags(t *testing.T) {
	ok := flags{circuit: "viterbi", k: 7, w: 8, tb: 24, n: 16, modules: 12, gates: 40, insts: 3, top: 24, pis: 16}
	cases := []struct {
		name string
		set  func(f *flags)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(f *flags) {}, ""},
		{"zeros are the generator's defaults", func(f *flags) { f.k, f.w, f.tb = 0, 0, 0 }, ""},
		{"the scale-smoke decoder", func(f *flags) { f.k, f.w, f.tb = 11, 12, 96 }, ""},
		{"2^39 trellis states", func(f *flags) { f.k = 40 }, "-k must be in 1..30"},
		{"negative constraint length", func(f *flags) { f.k = -1 }, "-k must be in 1..30"},
		{"a decoder past the elaborator's bound", func(f *flags) { f.k = 19 }, "signal bits"},
		{"the same bound, reached by survivor depth", func(f *flags) { f.k, f.tb = 14, 2000 }, "signal bits"},
		{"and by channels", func(f *flags) { f.circuit, f.k, f.channels = "soc", 14, 64 }, "64 channel(s)"},
		{"one-bit metric", func(f *flags) { f.w = 1 }, "-w must be in 2.."},
		{"negative metric width", func(f *flags) { f.w = -8 }, "-w must be in 2.."},
		{"one survivor stage", func(f *flags) { f.tb = 1 }, "-tb must be in 2.."},
		{"negative survivor depth", func(f *flags) { f.tb = -24 }, "-tb must be in 2.."},
		{"default soc", func(f *flags) { f.circuit = "soc" }, ""},
		{"four channels", func(f *flags) { f.circuit, f.channels = "soc", 4 }, ""},
		{"negative channels", func(f *flags) { f.circuit, f.channels = "soc", -1 }, "-channels must be in 0.."},
		{"multiplier", func(f *flags) { f.circuit = "mul" }, ""},
		{"multiplier ignores -k", func(f *flags) { f.circuit, f.k = "mul", 40 }, ""},
		{"negative operand width", func(f *flags) { f.circuit, f.n = "mul", -3 }, "-n must be in 1..2048"},
		{"zero operand width", func(f *flags) { f.circuit, f.n = "mul", 0 }, "-n must be in 1..2048"},
		{"ten billion full adders", func(f *flags) { f.circuit, f.n = "mul", 100000 }, "-n must be in 1..2048"},
		{"lfsr", func(f *flags) { f.circuit = "lfsr" }, ""},
		{"lfsr with a tap at -2", func(f *flags) { f.circuit, f.n = "lfsr", 1 }, "-n must be in 3.."},
		{"randhier", func(f *flags) { f.circuit = "randhier" }, ""},
		{"leaf modules only", func(f *flags) { f.circuit, f.insts = "randhier", 0 }, ""},
		{"no modules", func(f *flags) { f.circuit, f.modules = "randhier", 0 }, "-modules must be in 1.."},
		{"no gates", func(f *flags) { f.circuit, f.gates = "randhier", -40 }, "-gates must be in 1.."},
		{"negative instances", func(f *flags) { f.circuit, f.insts = "randhier", -1 }, "-insts must be in 0.."},
		{"empty top", func(f *flags) { f.circuit, f.top = "randhier", 0 }, "-top must be in 1.."},
		{"no inputs", func(f *flags) { f.circuit, f.pis = "randhier", 0 }, "-pis must be in 1.."},
		{"unknown family", func(f *flags) { f.circuit = "fir" }, `unknown -circuit "fir"`},
		{"stray argument", func(f *flags) { f.args = []string{"soc.v"} }, `unexpected arguments ["soc.v"]`},
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
