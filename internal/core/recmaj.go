package core

import "probequorum/internal/systems"

// ExpectedGateEvaluations returns the expected number of children a
// short-circuit majority gate evaluates until one side reaches the
// threshold t, when each child is independently green with probability a.
// For a = 1/2, t = 2 this is the paper's 5/2. It delegates to
// systems.ExpectedGateEvaluations, which the RecMaj expectation
// capability is built on.
func ExpectedGateEvaluations(a float64, t int) float64 {
	return systems.ExpectedGateEvaluations(a, t)
}
