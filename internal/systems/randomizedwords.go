package systems

import (
	"math/rand/v2"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
)

// This file implements the probe.RandomizedWordsProber capability on
// all seven constructions: each of the paper's randomized worst-case
// strategies, written once, with all witness state in the oracle's
// word-buffer arena. ProbeWitnessRandomized (randomized.go) runs the same
// code against any probe.Oracle through a delegating WordsOracle, so the
// probe sequence and rng consumption are the same for every oracle.

var (
	_ probe.RandomizedWordsProber = (*Maj)(nil)
	_ probe.RandomizedWordsProber = (*Wheel)(nil)
	_ probe.RandomizedWordsProber = (*CW)(nil)
	_ probe.RandomizedWordsProber = (*Tree)(nil)
	_ probe.RandomizedWordsProber = (*HQS)(nil)
	_ probe.RandomizedWordsProber = (*Vote)(nil)
	_ probe.RandomizedWordsProber = (*RecMaj)(nil)
)

// ProbeWitnessWordsRandomized implements probe.RandomizedWordsProber
// with Algorithm R_Probe_Maj (§4.1): probe elements uniformly at random
// without replacement until one color reaches the quorum threshold. Its
// worst-case expected probe count is n - (n-1)/(n+3) (Theorem 4.2).
//
//quorum:hotpath
func (m *Maj) ProbeWitnessWordsRandomized(o *probe.WordsOracle, rng *rand.Rand) probe.WordsWitness {
	t := m.Threshold()
	greens := o.AcquireWords()
	reds := o.AcquireWords()
	greenCount, redCount := 0, 0
	for _, e := range rng.Perm(m.n) {
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
	panic("systems: Maj.ProbeWitnessWordsRandomized exhausted the universe without a witness")
}

// ProbeWitnessWordsRandomized implements probe.RandomizedWordsProber: the
// hub-first strategy with the rim scanned in uniformly random order, so
// no fixed rim ordering can be targeted by an adversary.
//
//quorum:hotpath
func (w *Wheel) ProbeWitnessWordsRandomized(o *probe.WordsOracle, rng *rand.Rand) probe.WordsWitness {
	buf := o.AcquireWords()
	hubColor := o.Probe(0)
	for _, off := range rng.Perm(w.n - 1) {
		r := off + 1
		if o.Probe(r) == hubColor {
			quorum.SetWordBit(buf, 0)
			quorum.SetWordBit(buf, r)
			return probe.WordsWitness{Color: hubColor, Words: buf}
		}
	}
	quorum.FullWordsInto(buf, w.n)
	buf[0] &^= 1
	return probe.WordsWitness{Color: hubColor.Opposite(), Words: buf}
}

// ProbeWitnessWordsRandomized implements probe.RandomizedWordsProber
// with Algorithm R_Probe_CW (§4.2): starting from the bottom row, probe
// each row in uniformly random order until elements of both colors are
// seen, moving up; stop at the first monochromatic row, which together
// with the recorded same-colored representatives below forms the
// witness.
//
//quorum:hotpath
func (c *CW) ProbeWitnessWordsRandomized(o *probe.WordsOracle, rng *rand.Rand) probe.WordsWitness {
	k := c.Rows()
	// R_Probe_CW keeps one green and one red representative per row; the
	// strategy is inherently O(rows) in bookkeeping and rng.Perm below
	// allocates per row regardless, so these two small slices are the
	// documented exception to the no-allocation contract.
	repGreen := make([]int, k) //quorumvet:ignore hotpath O(rows) representative bookkeeping, dominated by rng.Perm
	repRed := make([]int, k)   //quorumvet:ignore hotpath O(rows) representative bookkeeping, dominated by rng.Perm
	for j := k - 1; j >= 0; j-- {
		lo, hi := c.RowRange(j)
		width := hi - lo
		order := rng.Perm(width)
		repGreen[j], repRed[j] = -1, -1
		for _, off := range order {
			e := lo + off
			if o.Probe(e) == coloring.Green {
				repGreen[j] = e
			} else {
				repRed[j] = e
			}
			if repGreen[j] >= 0 && repRed[j] >= 0 {
				break
			}
		}
		if repGreen[j] < 0 || repRed[j] < 0 {
			// Row j is monochromatic: assemble the witness.
			mode := coloring.Green
			if repGreen[j] < 0 {
				mode = coloring.Red
			}
			w := o.AcquireWords()
			for e := lo; e < hi; e++ {
				quorum.SetWordBit(w, e)
			}
			for i := j + 1; i < k; i++ {
				if mode == coloring.Green {
					quorum.SetWordBit(w, repGreen[i])
				} else {
					quorum.SetWordBit(w, repRed[i])
				}
			}
			return probe.WordsWitness{Color: mode, Words: w}
		}
	}
	panic("systems: CW.ProbeWitnessWordsRandomized passed the top row without a witness")
}

// ProbeWitnessWordsRandomized implements probe.RandomizedWordsProber
// with Algorithm R_Probe_Tree (§4.3): at every subtree choose uniformly
// among three probe orders — root then left subtree (right only if
// needed), root then right subtree (left only if needed), or both
// subtrees first (root only if they disagree). PCR ≤ 5n/6 + 1/6
// (Theorem 4.7).
//
//quorum:hotpath
func (t *Tree) ProbeWitnessWordsRandomized(o *probe.WordsOracle, rng *rand.Rand) probe.WordsWitness {
	dst := o.AcquireWords()
	c := t.rProbeWordsAt(o, rng, t.Root(), dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

func (t *Tree) rProbeWordsAt(o *probe.WordsOracle, rng *rand.Rand, v int, dst []uint64) coloring.Color {
	if t.IsLeaf(v) {
		c := o.Probe(v)
		quorum.ZeroWords(dst)
		quorum.SetWordBit(dst, v)
		return c
	}
	switch rng.IntN(3) {
	case 0:
		return t.rProbeWordsRootFirst(o, rng, v, t.Left(v), t.Right(v), dst)
	case 1:
		return t.rProbeWordsRootFirst(o, rng, v, t.Right(v), t.Left(v), dst)
	default:
		cl := t.rProbeWordsAt(o, rng, t.Left(v), dst)
		tmp := o.AcquireWords()
		cr := t.rProbeWordsAt(o, rng, t.Right(v), tmp)
		if cl == cr {
			quorum.OrWords(dst, tmp)
			o.ReleaseWords(1)
			return cl
		}
		rootColor := o.Probe(v)
		if cr == rootColor {
			quorum.CopyWords(dst, tmp)
		}
		quorum.SetWordBit(dst, v)
		o.ReleaseWords(1)
		return rootColor
	}
}

func (t *Tree) rProbeWordsRootFirst(o *probe.WordsOracle, rng *rand.Rand, v, first, second int, dst []uint64) coloring.Color {
	rootColor := o.Probe(v)
	c1 := t.rProbeWordsAt(o, rng, first, dst)
	if c1 == rootColor {
		quorum.SetWordBit(dst, v)
		return rootColor
	}
	tmp := o.AcquireWords()
	c2 := t.rProbeWordsAt(o, rng, second, tmp)
	if c2 == rootColor {
		quorum.CopyWords(dst, tmp)
		quorum.SetWordBit(dst, v)
		o.ReleaseWords(1)
		return rootColor
	}
	quorum.OrWords(dst, tmp)
	o.ReleaseWords(1)
	return c1
}

// ProbeWitnessWordsRandomized implements probe.RandomizedWordsProber
// with Algorithm IR_Probe_HQS (Fig. 8), the improved randomized HQS
// prober. To evaluate a gate of height >= 2 it fully evaluates a random
// child r1, then peeks at a random grandchild of a second random child
// r2. If the grandchild agrees with r1 it finishes evaluating r2 (hoping
// to confirm the majority); otherwise it suspects r2 is the minority
// child and evaluates r3 first.
//
// "Evaluating" a node means evaluating its children in uniformly random
// order until its value is determined, each child by a recursive IR
// call, so the recursion descends two levels at a time. PCR =
// O(n^0.887) (Theorem 4.10).
//
//quorum:hotpath
func (q *HQS) ProbeWitnessWordsRandomized(o *probe.WordsOracle, rng *rand.Rand) probe.WordsWitness {
	dst := o.AcquireWords()
	c := q.irEvalWords(o, rng, 0, q.n, dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

func (q *HQS) irEvalWords(o *probe.WordsOracle, rng *rand.Rand, start, size int, dst []uint64) coloring.Color {
	if size == 1 {
		c := o.Probe(start)
		quorum.ZeroWords(dst)
		quorum.SetWordBit(dst, start)
		return c
	}
	if size == 3 {
		return q.irPlainEvalWords(o, rng, start, size, dst)
	}
	third := size / 3
	order := rng.Perm(3)
	r1 := start + order[0]*third
	r2 := start + order[1]*third
	r3 := start + order[2]*third

	c1 := q.irPlainEvalWords(o, rng, r1, third, dst) // v1 in dst
	ninth := third / 3
	gcIdx := rng.IntN(3)
	gcBuf := o.AcquireWords()
	cgc := q.irEvalWords(o, rng, r2+gcIdx*ninth, ninth, gcBuf)

	if cgc == c1 {
		v2 := o.AcquireWords()
		c2 := q.irContinueEvalWords(o, rng, r2, third, gcIdx, cgc, gcBuf, v2)
		if c2 == c1 {
			quorum.OrWords(dst, v2)
			o.ReleaseWords(2)
			return c1
		}
		v3 := o.AcquireWords()
		c3 := q.irPlainEvalWords(o, rng, r3, third, v3)
		// The decider v3 plus whichever of v1, v2 shares its color.
		if c3 != c1 {
			quorum.CopyWords(dst, v2)
		}
		quorum.OrWords(dst, v3)
		o.ReleaseWords(3)
		return c3
	}
	v3 := o.AcquireWords()
	c3 := q.irPlainEvalWords(o, rng, r3, third, v3)
	if c3 == c1 {
		quorum.OrWords(dst, v3)
		o.ReleaseWords(2)
		return c1
	}
	v2 := o.AcquireWords()
	c2 := q.irContinueEvalWords(o, rng, r2, third, gcIdx, cgc, gcBuf, v2)
	// The decider v2 plus whichever of v1, v3 shares its color.
	if c2 != c1 {
		quorum.CopyWords(dst, v3)
	}
	quorum.OrWords(dst, v2)
	o.ReleaseWords(3)
	return c2
}

func (q *HQS) irPlainEvalWords(o *probe.WordsOracle, rng *rand.Rand, start, size int, dst []uint64) coloring.Color {
	third := size / 3
	order := rng.Perm(3)
	c0 := q.irEvalWords(o, rng, start+order[0]*third, third, dst)
	w1 := o.AcquireWords()
	c1 := q.irEvalWords(o, rng, start+order[1]*third, third, w1)
	if c0 == c1 {
		quorum.OrWords(dst, w1)
		o.ReleaseWords(1)
		return c0
	}
	w2 := o.AcquireWords()
	c2 := q.irEvalWords(o, rng, start+order[2]*third, third, w2)
	if c2 != c0 {
		quorum.CopyWords(dst, w1)
	}
	quorum.OrWords(dst, w2)
	o.ReleaseWords(2)
	return c2
}

// irContinueEvalWords finishes evaluating the gate at [start, start+size)
// given that its child at knownIdx already evaluated to knownColor with
// witness knownBuf, writing the gate witness into dst.
func (q *HQS) irContinueEvalWords(o *probe.WordsOracle, rng *rand.Rand, start, size, knownIdx int, knownColor coloring.Color, knownBuf, dst []uint64) coloring.Color {
	third := size / 3
	var rest [2]int
	k := 0
	for i := 0; i < 3; i++ {
		if i != knownIdx {
			rest[k] = i
			k++
		}
	}
	if rng.IntN(2) == 1 {
		rest[0], rest[1] = rest[1], rest[0]
	}
	c1 := q.irEvalWords(o, rng, start+rest[0]*third, third, dst)
	if c1 == knownColor {
		quorum.OrWords(dst, knownBuf)
		return c1
	}
	tmp := o.AcquireWords()
	c2 := q.irEvalWords(o, rng, start+rest[1]*third, third, tmp)
	// The decider w2 plus whichever of known, w1 shares its color; dst
	// currently holds w1.
	if c2 != c1 {
		quorum.CopyWords(dst, knownBuf)
	}
	quorum.OrWords(dst, tmp)
	o.ReleaseWords(1)
	return c2
}

// ProbeWitnessWordsRandomized implements probe.RandomizedWordsProber in
// the spirit of R_Probe_Maj: probe elements in uniformly random order
// until one color accumulates a strict weight majority. Randomizing the
// order removes the adversary's leverage over the fixed descending-weight
// scan of ProbeWitnessWords.
//
//quorum:hotpath
func (v *Vote) ProbeWitnessWordsRandomized(o *probe.WordsOracle, rng *rand.Rand) probe.WordsWitness {
	t := v.Threshold()
	n := len(v.weights)
	greens := o.AcquireWords()
	reds := o.AcquireWords()
	greenWeight, redWeight := 0, 0
	for _, e := range rng.Perm(n) {
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
	panic("systems: Vote.ProbeWitnessWordsRandomized exhausted the universe without a witness")
}

// ProbeWitnessWordsRandomized implements probe.RandomizedWordsProber by
// evaluating every gate's children in uniformly random order with
// short-circuit at the gate threshold — the m-ary generalization of
// Algorithm R_Probe_HQS (Fig. 7); for m = 3 the two coincide.
//
//quorum:hotpath
func (r *RecMaj) ProbeWitnessWordsRandomized(o *probe.WordsOracle, rng *rand.Rand) probe.WordsWitness {
	dst := o.AcquireWords()
	c := r.rProbeWordsAt(o, rng, 0, r.n, dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

func (r *RecMaj) rProbeWordsAt(o *probe.WordsOracle, rng *rand.Rand, start, size int, dst []uint64) coloring.Color {
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
	for _, i := range rng.Perm(r.m) {
		c := r.rProbeWordsAt(o, rng, start+i*sub, sub, child)
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
	panic("systems: RecMaj.ProbeWitnessWordsRandomized: gate undecided after all children")
}
