// Package repro is a from-scratch Go reproduction of "A Multiway
// Partitioning Algorithm for Parallel Gate Level Verilog Simulation"
// (Li & Tropper, ICPP 2008): a gate-level Verilog front end, hypergraph
// models, the paper's design-driven multiway partitioner, an hMetis-style
// multilevel baseline, sequential and parallel (Time Warp) simulators, a
// deterministic cluster model, and a harness regenerating every table and
// figure of the paper's evaluation. See README.md and DESIGN.md.
package repro
