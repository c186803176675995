// Package repro is the root of the govhttps reproduction of "Accept the
// Risk and Continue: Measuring the Long Tail of Government https Adoption"
// (IMC 2020). The public API lives in repro/govhttps; the benchmark harness
// regenerating every table and figure lives in bench_test.go next to this
// file, and the performance gates in gate_test.go. See README.md,
// DESIGN.md and EXPERIMENTS.md.
package repro
