package probe

import "math/rand/v2"

// Prober is the capability of quorum systems that carry their own
// deterministic witness-search strategy (the paper's probabilistic-model
// algorithms: Probe_Maj, Probe_CW, Probe_Tree, Probe_HQS and friends).
// The façade's FindWitness dispatches on this interface; systems without
// it fall back to the generic sequential scan when they implement
// quorum.Finder.
//
// ProbeWitness must return a sound witness for every coloring the oracle
// can answer from: a monochromatic quorum of probed elements whose color
// matches the true system state.
type Prober interface {
	// ProbeWitness locates a witness by adaptively probing the oracle.
	ProbeWitness(o Oracle) Witness
}

// RandomizedProber is the capability of quorum systems that carry their
// own randomized worst-case witness-search strategy (R_Probe_Maj,
// R_Probe_CW, R_Probe_Tree, IR_Probe_HQS and friends). The façade's
// FindWitnessRandomized dispatches on this interface, falling back to the
// generic random scan for Finder systems.
type RandomizedProber interface {
	// ProbeWitnessRandomized locates a witness using rng for its random
	// choices. It must be sound for every coloring; only the probe count
	// distribution depends on rng.
	ProbeWitnessRandomized(o Oracle, rng *rand.Rand) Witness
}

// WordsProber is the wide-universe form of Prober, and the one place a
// built-in strategy is written: the strategy probes a WordsOracle and
// assembles the witness in the oracle's reusable word buffers, so trial
// loops stay allocation-free at any universe size. The built-in
// constructions implement ProbeWitness as an adapter that runs this same
// method against a WordsOracle delegating to the given Oracle
// (NewWordsOracleVia), so both entry points probe the same elements in
// the same order and return the same witness. The returned witness
// aliases oracle arena memory (valid until the next Reset).
//
// All built-in constructions implement it; the façade's estimate path
// dispatches on it and falls back to the bitset Prober path otherwise.
type WordsProber interface {
	Prober

	// ProbeWitnessWords locates a witness by adaptively probing o.
	ProbeWitnessWords(o *WordsOracle) WordsWitness
}

// RandomizedWordsProber is the wide-universe form of RandomizedProber,
// on the same terms as WordsProber: the built-in constructions write each
// randomized strategy once here, and ProbeWitnessRandomized runs it
// through a delegating WordsOracle, with the same probe sequence, rng
// consumption and witness.
type RandomizedWordsProber interface {
	RandomizedProber

	// ProbeWitnessWordsRandomized locates a witness using rng for its
	// random choices.
	ProbeWitnessWordsRandomized(o *WordsOracle, rng *rand.Rand) WordsWitness
}
