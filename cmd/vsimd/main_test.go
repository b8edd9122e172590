package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins what vsimd refuses before it dials: each case
// changes one value of an otherwise runnable command line.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name        string
		connect     string
		dialTimeout time.Duration
		stallAfter  time.Duration
		args        []string
		want        string // substring of the error; "" = accepted
	}{
		{"defaults", "127.0.0.1:7700", 5 * time.Second, 0, nil, ""},
		{"stall bound set", "127.0.0.1:7700", time.Second, 30 * time.Second, nil, ""},
		{"no coordinator", "", 5 * time.Second, 0, nil, "-connect is required"},
		{"zero dial timeout", "127.0.0.1:7700", 0, 0, nil, "-dial-timeout must be > 0"},
		{"negative dial timeout", "127.0.0.1:7700", -time.Second, 0, nil, "-dial-timeout must be > 0"},
		{"negative stall bound", "127.0.0.1:7700", 5 * time.Second, -time.Second, nil, "-stall-after must be >= 0"},
		{"address without its flag", "", 5 * time.Second, 0, []string{"127.0.0.1:7700"}, "-connect is required"},
		{"stray argument", "127.0.0.1:7700", 5 * time.Second, 0, []string{"extra"}, `unexpected arguments ["extra"]`},
	}
	for _, c := range cases {
		err := validateFlags(c.connect, c.dialTimeout, c.stallAfter, c.args)
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
