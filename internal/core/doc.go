// Package core implements the probing algorithms of Hassin & Peleg,
// "Average probe complexity in quorum systems" — the paper's primary
// contribution — together with baseline strategies and exact expectation
// evaluators.
//
// The paper's algorithms are methods of the constructions in
// internal/systems, each written once over the wide-universe
// probe.WordsOracle (ProbeWitnessWords, ProbeWitnessWordsRandomized) and
// run against any probe.Oracle through ProbeWitness and
// ProbeWitnessRandomized.
//
// Probabilistic-model algorithms (§3, deterministic strategies analyzed
// under IID element failures with probability p):
//
//   - Probe_Maj  — Maj.ProbeWitness, §3.1: probe elements until one color
//     reaches majority.
//   - Probe_CW   — CW.ProbeWitness, §3.2, Fig. 5: walk the rows keeping a
//     monochromatic witness set, flipping mode on monochromatic rows;
//     E[probes] ≤ 2k-1.
//   - Probe_Tree — Tree.ProbeWitness, §3.3: root first, then right
//     subtree, left only when needed; E[probes] = O(n^{log2(1+p)}).
//   - Probe_HQS  — HQS.ProbeWitness, §3.4: evaluate 2-of-3 gates left to
//     right, skipping the third child when the first two agree; optimal
//     at p = 1/2 (Thm 3.9).
//
// Randomized worst-case algorithms (§4):
//
//   - R_Probe_Maj  — Maj.ProbeWitnessRandomized, §4.1: probe uniformly at
//     random; PCR = n - (n-1)/(n+3).
//   - R_Probe_CW   — CW.ProbeWitnessRandomized, §4.2: per row, probe
//     randomly until both colors appear.
//   - R_Probe_Tree — Tree.ProbeWitnessRandomized, §4.3: random choice
//     among root+subtree / subtrees-first orders; PCR ≤ 5n/6 + 1/6.
//   - R_Probe_HQS  — RProbeHQS in this package, §4.4, Fig. 7 (Boppana):
//     evaluate a random pair of children, the third only on
//     disagreement; O(n^{log3(8/3)}).
//   - IR_Probe_HQS — HQS.ProbeWitnessRandomized, §4.4, Fig. 8: the
//     improved algorithm that peeks at one grandchild to bias the second
//     child choice; O(n^0.887).
//
// The Wheel, Vote and RecMaj constructions carry strategies of the same
// shape (hub-first scan, descending-weight scan, short-circuit m-ary
// gates), each with a randomized counterpart.
//
// Baselines: SequentialScan (the generic deterministic strategy),
// RandomScan (its randomized counterpart) and Universal (the quorum-
// avoiding snoop in the spirit of Peleg & Wool's O(c^2) universal
// algorithm [15]).
//
// For every randomized algorithm the package also provides an exact
// per-coloring expectation evaluator (exact.go) that integrates over the
// algorithm's coin flips; these power the worst-case-input searches and
// the Table 1 reproduction without Monte Carlo noise.
package core
