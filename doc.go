// Package lauberhorn is a simulation-based reproduction of "The NIC
// should be part of the OS." (Xu & Roscoe, HotOS '25): a deterministic,
// cycle-approximate model of a server whose smart NIC is a trusted OS
// component, terminating the cache-coherence protocol, dispatching RPCs
// directly into stalled CPU loads, and driving scheduling decisions —
// alongside complete kernel-bypass and in-kernel baseline stacks built on
// the same substrates.
//
// The implementation lives under internal/: see internal/core for the
// paper's contribution, internal/stackdrv for the stack-driver registry
// that makes the stacks pluggable (each stack registers a driver beside
// its implementation; the registry ships Lauberhorn, Bypass, Kernel,
// KernelEnzian, and Hybrid — Lauberhorn with the §6 4KiB DMA fallback),
// internal/cluster for the declarative multi-host topology layer
// (fan-in, incast, mixed-stack, and multi-tier spine-leaf fabric
// scenarios as data — with deterministic ECMP, link contention, and a
// fault-injection schedule — every host resolved through the registry),
// internal/experiments for the per-figure reproductions, cmd/ for the
// CLIs, and examples/ for runnable walkthroughs. DESIGN.md at the
// repository root maps the layers and indexes the experiments;
// EXPERIMENTS.md catalogs each one (claim, rig, stacks, pinning test).
// bench_test.go in this directory regenerates every table and figure via
// `go test -bench .`.
//
// Experiments execute through experiments.Runner, a bounded worker pool
// that runs each experiment in its own simulator universe: cmd/lhbench
// runs them -parallel N wide (default GOMAXPROCS) with byte-identical
// tables to a serial run, streaming results in presentation order and
// recording per-experiment wall-clock and simulator-event counts via
// sim.Meter. The simulator itself recycles events through a free list
// with lazy cancellation and fires one event per loop step, so the
// schedule->fire and schedule->cancel hot paths allocate nothing in
// steady state (see internal/sim benchmarks), and the model layer above
// it is flattened the same way: per-request state machines with
// prebound continuations, scratch-staged control lines, and
// provision-time function tables instead of per-event closures and
// interface dispatch (the "Model layer" section of DESIGN.md documents
// the layout and the before/after profile).
//
// Those contracts are statically enforced: internal/lint (run as
// cmd/lhlint) is a stdlib-only analyzer suite that forbids map
// iteration, wall-clock reads, global randomness, and goroutines in
// model code, checks //lhlint:hotpath-annotated functions for
// allocating constructs, and cross-checks the experiment registry
// against EXPERIMENTS.md. `go run ./cmd/lhlint ./...` must exit clean;
// CI gates on it alongside a perf ratchet (`lhbench -ratchet`) that
// fails on aggregate events/sec regressions against BENCH_sim.json.
package lauberhorn
