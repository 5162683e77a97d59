package systems

import (
	"math/rand/v2"

	"probequorum/internal/probe"
)

// This file implements the probe.RandomizedProber capability — the
// paper's randomized worst-case strategies — on every construction, so
// no built-in ever takes the generic random-scan fallback. Each strategy
// is written once, in randomizedwords.go; ProbeWitnessRandomized runs it
// against any probe.Oracle through a delegating WordsOracle, with the
// same probe sequence and rng consumption.

var (
	_ probe.RandomizedProber = (*Maj)(nil)
	_ probe.RandomizedProber = (*Wheel)(nil)
	_ probe.RandomizedProber = (*CW)(nil)
	_ probe.RandomizedProber = (*Tree)(nil)
	_ probe.RandomizedProber = (*HQS)(nil)
	_ probe.RandomizedProber = (*Vote)(nil)
	_ probe.RandomizedProber = (*RecMaj)(nil)
)

// ProbeWitnessRandomized implements probe.RandomizedProber with
// R_Probe_Maj (§4.1).
func (m *Maj) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return m.ProbeWitnessWordsRandomized(probe.NewWordsOracleVia(m.n, o), rng).Set(m.n)
}

// ProbeWitnessRandomized implements probe.RandomizedProber with the
// hub-first wheel scan over a random rim order.
func (w *Wheel) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return w.ProbeWitnessWordsRandomized(probe.NewWordsOracleVia(w.n, o), rng).Set(w.n)
}

// ProbeWitnessRandomized implements probe.RandomizedProber with
// R_Probe_CW (§4.2).
func (c *CW) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return c.ProbeWitnessWordsRandomized(probe.NewWordsOracleVia(c.n, o), rng).Set(c.n)
}

// ProbeWitnessRandomized implements probe.RandomizedProber with
// R_Probe_Tree (§4.3).
func (t *Tree) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return t.ProbeWitnessWordsRandomized(probe.NewWordsOracleVia(t.n, o), rng).Set(t.n)
}

// ProbeWitnessRandomized implements probe.RandomizedProber with
// IR_Probe_HQS (Fig. 8).
func (q *HQS) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return q.ProbeWitnessWordsRandomized(probe.NewWordsOracleVia(q.n, o), rng).Set(q.n)
}

// ProbeWitnessRandomized implements probe.RandomizedProber with the
// random-order weighted scan.
func (v *Vote) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	n := v.Size()
	return v.ProbeWitnessWordsRandomized(probe.NewWordsOracleVia(n, o), rng).Set(n)
}

// ProbeWitnessRandomized implements probe.RandomizedProber with
// random-order short-circuit gate evaluation.
func (r *RecMaj) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return r.ProbeWitnessWordsRandomized(probe.NewWordsOracleVia(r.n, o), rng).Set(r.n)
}
