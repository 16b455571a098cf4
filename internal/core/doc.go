// Package core implements Maliva's contribution: MDP-based query rewriting
// under a time constraint. It defines rewriting options (query-hint sets
// and approximation rules, Def. 2.1/2.2 in the paper; the approximation
// rules are the paper's own, sample tables and LIMIT), the per-query
// context that captures ground truth for training, the MDP model (states,
// actions, transitions, rewards — §4), the deep-Q agent (Algorithm 1/2 —
// §5), and the quality-aware one-stage/two-stage rewriters (§6).
//
// # Layout
//
//   - option.go — the rewriting-option space Ω (hint sets × approximation
//     rules) and BuildRQ, which turns an option into a rewritten query.
//     The serving layer enumerates hint sets only (HintOnlySpec), so every
//     served answer is exact; approximation rules serve the harness
//     experiments and the examples.
//   - context.go — QueryContext: one workload query's ground truth (every
//     option's time and quality). BuildContext is the expensive step; it
//     prices each distinct physical plan among the options once — counting
//     exact single-table plans from their posting lists (engine.Counter),
//     executing the rest — and scans each predicate's index once through a
//     per-build memo in front of the optional shared engine.LookupCache
//     (ContextConfig.Lookups).
//   - env.go, agent.go — the MDP environment and the deep-Q Agent, with
//     JSON snapshots: cmd/maliva-train writes them (SaveAgentFile) and
//     maliva-server -agent loads them (LoadAgentFile).
//   - rewriter.go, quality.go, qte.go — the Rewriter interface and its
//     implementations (Baseline, Naive, MDP, Oracle, quality-aware
//     one/two-stage), plus query-time-estimator plumbing.
//   - replay.go — deterministic replay of recorded decisions.
//   - parallel.go — RunIndexed, the GOMAXPROCS-wide worker pool the
//     harness and the gateway's dataset builds share.
//
// # Invariants
//
// A Rewriter's outcome is a deterministic function of (context, budget):
// rewriters may keep scratch state (the MDP agent reuses forward-pass
// buffers — not concurrency-safe, callers serialize), but never
// decision-relevant state. The serving layer's plan cache and the
// cluster's shared rewriters both lean on that determinism.
package core
