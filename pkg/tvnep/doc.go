// Package tvnep is the public API of the TVNEP repository: optimal and
// heuristic solvers for the Temporal Virtual Network Embedding Problem —
// embedding virtual networks (nodes with CPU demands, links with bandwidth
// demands) into a shared substrate when every request carries a duration
// and a start-time window [earliest, latest] it may be scheduled in.
//
// The package is a facade: it re-exports the problem-data types (Substrate,
// Request, NodeMapping, Solution, Scenario) and funnels every solve through
// one Solver type configured with functional options. Three modes exist:
//
//   - Exact offline solves (Solver.Solve with WithAlgorithm(Exact), the
//     default): one of the paper's three MIP formulations (Delta, Sigma,
//     CSigma) under one of the Section IV-E objectives, solved to proven
//     optimality by the built-in branch-and-bound/simplex stack.
//
//   - The greedy heuristic (WithAlgorithm(Greedy)): the polynomial-time
//     online algorithm cΣ_A^G for the access-control objective.
//
//   - Online admission (Solver.Admit): a long-running streaming engine
//     that decides each arriving request against the committed system,
//     never revisiting a decision. Requires WithHorizon. NewServer wraps
//     the engine into an HTTP/JSON handler (see cmd/tvnep-serve).
//
// Results are verified with an independent Definition-2.1 feasibility
// checker on every solve; WithCertify adds the full certificate suite
// (objective recomputation, applied-cut validity, root-LP optimality).
//
// Determinism is a design contract throughout: branch-and-bound results are
// bit-identical across runs, and admission traces replay identically, as
// long as budgets are node-based (WithNodeLimit) rather than time-based.
//
// Direct use of the internal packages (internal/core, internal/greedy,
// internal/mip, …) is unsupported; their exported surfaces exist for this
// facade and the repository's own tools.
package tvnep
