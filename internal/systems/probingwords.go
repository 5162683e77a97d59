package systems

import (
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
)

// This file implements the probe.WordsProber capability on all seven
// constructions: each of the paper's deterministic strategies, written
// once. The witness and every intermediate live in the oracle's reusable
// word-buffer arena, so a Monte Carlo trial performs no heap allocation
// at any universe size; ProbeWitness (probing.go) runs the same code
// against any probe.Oracle through a delegating WordsOracle. The
// differential tests in probingwords_test.go pin every strategy to the
// bitset reference in reference_test.go element-for-element.

var (
	_ probe.WordsProber = (*Maj)(nil)
	_ probe.WordsProber = (*Wheel)(nil)
	_ probe.WordsProber = (*CW)(nil)
	_ probe.WordsProber = (*Tree)(nil)
	_ probe.WordsProber = (*HQS)(nil)
	_ probe.WordsProber = (*Vote)(nil)
	_ probe.WordsProber = (*RecMaj)(nil)
)

// ProbeWitnessWords implements probe.WordsProber with the paper's
// Probe_Maj (§3.1): probe elements in index order until one color reaches
// the quorum threshold. Under IID failures every fixed order is optimal
// because the unprobed elements remain exchangeable.
//
//quorum:hotpath
func (m *Maj) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	t := m.Threshold()
	greens := o.AcquireWords()
	reds := o.AcquireWords()
	greenCount, redCount := 0, 0
	for e := 0; e < m.n; e++ {
		if o.Probe(e) == coloring.Green {
			quorum.SetWordBit(greens, e)
			greenCount++
			if greenCount == t {
				return probe.WordsWitness{Color: coloring.Green, Words: greens}
			}
		} else {
			quorum.SetWordBit(reds, e)
			redCount++
			if redCount == t {
				return probe.WordsWitness{Color: coloring.Red, Words: reds}
			}
		}
	}
	panic("systems: Maj.ProbeWitnessWords exhausted the universe without a witness")
}

// ProbeWitnessWords implements probe.WordsProber with the hub-first
// strategy: probe the hub, then scan the rim for an element of the hub's
// color. A hub colored c plus a rim element colored c is a monochromatic
// {hub, r} quorum; if the whole rim disagrees with the hub, the rim itself
// is a monochromatic quorum of the opposite color. Under IID(p) the scan
// is a truncated geometric, so the expected probe count is O(1) for p
// bounded away from 0 and 1 — the paper's intuition for the wheel's
// cheapness.
//
//quorum:hotpath
func (w *Wheel) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	buf := o.AcquireWords()
	hubColor := o.Probe(0)
	for r := 1; r < w.n; r++ {
		if o.Probe(r) == hubColor {
			quorum.SetWordBit(buf, 0)
			quorum.SetWordBit(buf, r)
			return probe.WordsWitness{Color: hubColor, Words: buf}
		}
	}
	// The entire rim disagrees with the hub: the rim is the witness.
	quorum.FullWordsInto(buf, w.n)
	buf[0] &^= 1
	return probe.WordsWitness{Color: hubColor.Opposite(), Words: buf}
}

// ProbeWitnessWords implements probe.WordsProber with Algorithm Probe_CW
// (Fig. 5): scan rows top to bottom, maintaining a monochromatic witness
// set W and a mode equal to its color. In each row, probe until an
// element of the current mode is found; if the row is exhausted, the row
// itself is monochromatic of the opposite color, so it replaces W and the
// mode flips.
//
//quorum:hotpath
func (c *CW) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	w := o.AcquireWords()
	start, _ := c.RowRange(0)
	quorum.SetWordBit(w, start)
	mode := o.Probe(start)
	for i := 1; i < c.Rows(); i++ {
		lo, hi := c.RowRange(i)
		found := false
		for e := lo; e < hi; e++ {
			if o.Probe(e) == mode {
				quorum.SetWordBit(w, e)
				found = true
				break
			}
		}
		if !found {
			quorum.ZeroWords(w)
			for e := lo; e < hi; e++ {
				quorum.SetWordBit(w, e)
			}
			mode = mode.Opposite()
		}
	}
	return probe.WordsWitness{Color: mode, Words: w}
}

// ProbeWitnessWords implements probe.WordsProber with Algorithm
// Probe_Tree (§3.3): probe the root, recursively find a witness for the
// right subtree and, only if its color differs from the root's, for the
// left subtree. The three colors cannot be pairwise distinct, so a
// monochromatic subtree/root combination always emerges.
//
//quorum:hotpath
func (t *Tree) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	dst := o.AcquireWords()
	c := t.probeWordsAt(o, t.Root(), dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

// probeWordsAt probes the subtree at v, overwrites dst with the witness
// and returns its color.
func (t *Tree) probeWordsAt(o *probe.WordsOracle, v int, dst []uint64) coloring.Color {
	rootColor := o.Probe(v)
	if t.IsLeaf(v) {
		quorum.ZeroWords(dst)
		quorum.SetWordBit(dst, v)
		return rootColor
	}
	cr := t.probeWordsAt(o, t.Right(v), dst)
	if cr == rootColor {
		quorum.SetWordBit(dst, v)
		return rootColor
	}
	tmp := o.AcquireWords()
	cl := t.probeWordsAt(o, t.Left(v), tmp)
	if cl == rootColor {
		quorum.CopyWords(dst, tmp)
		quorum.SetWordBit(dst, v)
		o.ReleaseWords(1)
		return rootColor
	}
	// Both subtrees disagree with the root, hence agree with each other.
	quorum.OrWords(dst, tmp)
	o.ReleaseWords(1)
	return cl
}

// ProbeWitnessWords implements probe.WordsProber with Algorithm
// Probe_HQS (§3.4): evaluate each 2-of-3 gate by recursively evaluating
// its first two children and the third only when they disagree. The
// strategy is h-good and, by Theorem 3.9, optimal in the probabilistic
// model at p = 1/2.
//
//quorum:hotpath
func (q *HQS) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	dst := o.AcquireWords()
	c := q.probeWordsAt(o, 0, q.n, dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

func (q *HQS) probeWordsAt(o *probe.WordsOracle, start, size int, dst []uint64) coloring.Color {
	if size == 1 {
		c := o.Probe(start)
		quorum.ZeroWords(dst)
		quorum.SetWordBit(dst, start)
		return c
	}
	third := size / 3
	c0 := q.probeWordsAt(o, start, third, dst)
	w1 := o.AcquireWords()
	c1 := q.probeWordsAt(o, start+third, third, w1)
	if c0 == c1 {
		quorum.OrWords(dst, w1)
		o.ReleaseWords(1)
		return c0
	}
	w2 := o.AcquireWords()
	c2 := q.probeWordsAt(o, start+2*third, third, w2)
	// The gate witness is the deciding child plus whichever of the first
	// two shares its color.
	if c2 != c0 {
		quorum.CopyWords(dst, w1)
	}
	quorum.OrWords(dst, w2)
	o.ReleaseWords(2)
	return c2
}

// ProbeWitnessWords implements probe.WordsProber by probing elements in
// order of decreasing weight until one color accumulates a strict
// majority of the total weight. Heavy elements resolve the most weight
// per probe, which makes the descending order the natural greedy
// strategy in the probabilistic model (it is exactly Probe_Maj on unit
// weights).
//
//quorum:hotpath
func (v *Vote) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	t := v.Threshold()
	greens := o.AcquireWords()
	reds := o.AcquireWords()
	greenWeight, redWeight := 0, 0
	for _, e := range v.probeOrder() {
		if o.Probe(e) == coloring.Green {
			quorum.SetWordBit(greens, e)
			greenWeight += v.weights[e]
			if greenWeight >= t {
				return probe.WordsWitness{Color: coloring.Green, Words: greens}
			}
		} else {
			quorum.SetWordBit(reds, e)
			redWeight += v.weights[e]
			if redWeight >= t {
				return probe.WordsWitness{Color: coloring.Red, Words: reds}
			}
		}
	}
	panic("systems: Vote.ProbeWitnessWords exhausted the universe without a witness")
}

// ProbeWitnessWords implements probe.WordsProber by short-circuit gate
// evaluation: children are evaluated left to right and a gate stops as
// soon as one color reaches the gate threshold (m+1)/2. For m = 3 this is
// exactly Probe_HQS.
//
//quorum:hotpath
func (r *RecMaj) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	dst := o.AcquireWords()
	c := r.probeWordsAt(o, 0, r.n, dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

func (r *RecMaj) probeWordsAt(o *probe.WordsOracle, start, size int, dst []uint64) coloring.Color {
	if size == 1 {
		c := o.Probe(start)
		quorum.ZeroWords(dst)
		quorum.SetWordBit(dst, start)
		return c
	}
	sub := size / r.m
	t := r.GateThreshold()
	greens, reds := 0, 0
	greenAcc := o.AcquireWords()
	redAcc := o.AcquireWords()
	child := o.AcquireWords()
	for i := 0; i < r.m; i++ {
		c := r.probeWordsAt(o, start+i*sub, sub, child)
		if c == coloring.Green {
			greens++
			quorum.OrWords(greenAcc, child)
			if greens == t {
				quorum.CopyWords(dst, greenAcc)
				o.ReleaseWords(3)
				return coloring.Green
			}
		} else {
			reds++
			quorum.OrWords(redAcc, child)
			if reds == t {
				quorum.CopyWords(dst, redAcc)
				o.ReleaseWords(3)
				return coloring.Red
			}
		}
	}
	panic("systems: RecMaj.ProbeWitnessWords: gate undecided after all children (invalid arity)")
}
