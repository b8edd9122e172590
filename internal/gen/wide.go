package gen

import (
	"fmt"
	"math/rand"
)

// WideGates generates a flat random circuit of the given number (at least
// one) of combinational gates, each of one to nine inputs (not and buf:
// one), read from the stimulus inputs, a register of eight flip-flops and
// the gates before it; the register samples late gates and feeds back. It
// is the one family with gates of more than four inputs, which the
// simulators' 16-bit tables take as chains of tables (DESIGN §20); the
// other families' gates have at most four.
func WideGates(gates int, seed int64) *Circuit {
	const pis, regs = 6, 8
	gates = max(gates, 1)
	rng := rand.New(rand.NewSource(seed))
	e := newEmitter()
	e.printf("// Generated wide-gate circuit (%d gates, seed %d)\n", gates, seed)
	e.printf("module wide (input clk")
	for i := range pis {
		e.printf(", input i%d", i)
	}
	e.printf(", output o0, output o1);\n")
	var nets []string
	for i := range pis {
		nets = append(nets, fmt.Sprintf("i%d", i))
	}
	for i := range regs {
		e.printf("  wire q%d;\n", i)
		nets = append(nets, fmt.Sprintf("q%d", i))
	}
	kinds := []string{"and", "nand", "or", "nor", "xor", "xnor", "not", "buf"}
	for g := range gates {
		kind := kinds[rng.Intn(len(kinds))]
		n := 1 + rng.Intn(9)
		if kind == "not" || kind == "buf" {
			n = 1
		}
		e.printf("  wire w%d;\n  %s g%d (w%d", g, kind, g, g)
		for range n {
			e.printf(", %s", nets[rng.Intn(len(nets))])
		}
		e.printf(");\n")
		nets = append(nets, fmt.Sprintf("w%d", g))
	}
	for i := range regs {
		e.printf("  dff f%d (q%d, %s, clk);\n", i, i, nets[len(nets)-1-rng.Intn(min(gates, 16))])
	}
	e.printf("  buf b0 (o0, %s);\n  buf b1 (o1, %s);\n", nets[len(nets)-1], nets[len(nets)-2])
	e.line("endmodule")
	return &Circuit{Name: fmt.Sprintf("wide%d", gates), Top: "wide", Source: e.String()}
}
