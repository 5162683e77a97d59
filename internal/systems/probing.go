package systems

import "probequorum/internal/probe"

// This file implements the probe.Prober capability — the paper's
// deterministic probabilistic-model strategies — on every construction,
// so the façade dispatches on the interface instead of on concrete
// types. Each strategy is written once, in probingwords.go; ProbeWitness
// runs it against any probe.Oracle through a delegating WordsOracle, so
// every oracle sees the same probe sequence.

var (
	_ probe.Prober = (*Maj)(nil)
	_ probe.Prober = (*Wheel)(nil)
	_ probe.Prober = (*CW)(nil)
	_ probe.Prober = (*Tree)(nil)
	_ probe.Prober = (*HQS)(nil)
	_ probe.Prober = (*Vote)(nil)
	_ probe.Prober = (*RecMaj)(nil)
)

// ProbeWitness implements probe.Prober with Probe_Maj (§3.1).
func (m *Maj) ProbeWitness(o probe.Oracle) probe.Witness {
	return m.ProbeWitnessWords(probe.NewWordsOracleVia(m.n, o)).Set(m.n)
}

// ProbeWitness implements probe.Prober with the hub-first wheel scan.
func (w *Wheel) ProbeWitness(o probe.Oracle) probe.Witness {
	return w.ProbeWitnessWords(probe.NewWordsOracleVia(w.n, o)).Set(w.n)
}

// ProbeWitness implements probe.Prober with Probe_CW (Fig. 5).
func (c *CW) ProbeWitness(o probe.Oracle) probe.Witness {
	return c.ProbeWitnessWords(probe.NewWordsOracleVia(c.n, o)).Set(c.n)
}

// ProbeWitness implements probe.Prober with Probe_Tree (§3.3).
func (t *Tree) ProbeWitness(o probe.Oracle) probe.Witness {
	return t.ProbeWitnessWords(probe.NewWordsOracleVia(t.n, o)).Set(t.n)
}

// ProbeWitness implements probe.Prober with Probe_HQS (§3.4).
func (q *HQS) ProbeWitness(o probe.Oracle) probe.Witness {
	return q.ProbeWitnessWords(probe.NewWordsOracleVia(q.n, o)).Set(q.n)
}

// ProbeWitness implements probe.Prober with the descending-weight scan.
func (v *Vote) ProbeWitness(o probe.Oracle) probe.Witness {
	n := v.Size()
	return v.ProbeWitnessWords(probe.NewWordsOracleVia(n, o)).Set(n)
}

// ProbeWitness implements probe.Prober with short-circuit gate evaluation.
func (r *RecMaj) ProbeWitness(o probe.Oracle) probe.Witness {
	return r.ProbeWitnessWords(probe.NewWordsOracleVia(r.n, o)).Set(r.n)
}
