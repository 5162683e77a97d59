package systems

import (
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
)

// This file is the test-only reference the differentials compare
// against. It holds every construction's characteristic function written
// directly over a bitset, and every §3 and §4 strategy written directly
// over the bitset probe.Oracle, with the witness built in bitsets. The
// production membership tests (ContainsQuorumWords and its two adapters)
// must agree with refContainsQuorum on every set; the production
// strategies (probingwords.go, randomizedwords.go) must probe the same
// elements in the same order, consume the rng stream the same way and
// return the same witness.

// refMember is a construction's reference characteristic function.
type refMember interface {
	refContainsQuorum(s *bitset.Set) bool
}

// refContainsQuorum: s contains a quorum iff it holds a threshold of
// elements.
func (m *Maj) refContainsQuorum(s *bitset.Set) bool {
	return s.Count() >= m.Threshold()
}

// refContainsQuorum: the hub plus any rim element, or the full rim.
func (w *Wheel) refContainsQuorum(s *bitset.Set) bool {
	if s.Contains(0) {
		return s.Count() >= 2 // hub plus any rim element
	}
	return s.Count() == w.n-1 // full rim
}

// refContainsQuorum: s contains a quorum iff there is a row j fully inside
// s such that every row below j meets s.
func (c *CW) refContainsQuorum(s *bitset.Set) bool {
	k := len(c.widths)
	// suffixHit reports, maintained bottom-up, that every row strictly
	// below the current row meets s.
	suffixHit := true
	for j := k - 1; j >= 0; j-- {
		start, end := c.RowRange(j)
		full, any := true, false
		for e := start; e < end; e++ {
			if s.Contains(e) {
				any = true
			} else {
				full = false
			}
		}
		if full && suffixHit {
			return true
		}
		suffixHit = suffixHit && any
		if !suffixHit && j > 0 {
			// No row above j can form a quorum either; but keep scanning is
			// pointless — every higher row needs a representative from row j.
			return false
		}
	}
	return false
}

// refContainsQuorum evaluates the gate recursion from the root.
func (t *Tree) refContainsQuorum(s *bitset.Set) bool {
	return t.live(0, s)
}

// live evaluates the characteristic function on the subtree rooted at v:
// f(v) = x_v ∧ (f(L) ∨ f(R)) ∨ (f(L) ∧ f(R)), with f(leaf) = x_leaf.
func (t *Tree) live(v int, s *bitset.Set) bool {
	if t.IsLeaf(v) {
		return s.Contains(v)
	}
	l := t.live(t.Left(v), s)
	r := t.live(t.Right(v), s)
	if l && r {
		return true
	}
	return s.Contains(v) && (l || r)
}

// refContainsQuorum: the 2-of-3 gate tree evaluates to true on the
// indicator of s.
func (q *HQS) refContainsQuorum(s *bitset.Set) bool {
	return q.eval(0, q.n, s)
}

func (q *HQS) eval(start, size int, s *bitset.Set) bool {
	if size == 1 {
		return s.Contains(start)
	}
	third := size / 3
	cnt := 0
	for i := 0; i < 3; i++ {
		if q.eval(start+i*third, third, s) {
			cnt++
			if cnt == 2 {
				return true
			}
		}
	}
	return false
}

// refWeight returns the total weight of the set.
func (v *Vote) refWeight(s *bitset.Set) int {
	total := 0
	s.ForEach(func(e int) bool {
		total += v.weights[e]
		return true
	})
	return total
}

// refContainsQuorum: the set's weight reaches the majority threshold.
func (v *Vote) refContainsQuorum(s *bitset.Set) bool {
	return v.refWeight(s) >= v.Threshold()
}

// refContainsQuorum evaluates the m-ary majority gate recursion.
func (r *RecMaj) refContainsQuorum(s *bitset.Set) bool {
	return r.eval(0, r.n, s)
}

func (r *RecMaj) eval(start, size int, s *bitset.Set) bool {
	if size == 1 {
		return s.Contains(start)
	}
	sub := size / r.m
	cnt := 0
	for i := 0; i < r.m; i++ {
		if r.eval(start+i*sub, sub, s) {
			cnt++
			if cnt == r.GateThreshold() {
				return true
			}
		}
	}
	return false
}

// refProber is a construction's reference deterministic strategy.
type refProber interface {
	refProbeWitness(o probe.Oracle) probe.Witness
}

// refRandomizedProber is a construction's reference randomized strategy.
type refRandomizedProber interface {
	refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness
}

// refProbeWitness is the paper's Probe_Maj (§3.1): probe elements in
// index order until one color reaches the quorum threshold. Under IID failures every fixed order is optimal because the
// unprobed elements remain exchangeable.
func (m *Maj) refProbeWitness(o probe.Oracle) probe.Witness {
	t := m.Threshold()
	greens := bitset.New(m.n)
	reds := bitset.New(m.n)
	for e := 0; e < m.n; e++ {
		if o.Probe(e) == coloring.Green {
			greens.Add(e)
			if greens.Count() == t {
				return probe.Witness{Color: coloring.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			if reds.Count() == t {
				return probe.Witness{Color: coloring.Red, Set: reds}
			}
		}
	}
	// Unreachable for odd n: one color must reach the threshold.
	panic("systems: Maj.ProbeWitness exhausted the universe without a witness")
}

// refProbeWitness is the hub-first strategy: probe
// the hub, then scan the rim for an element of the hub's color. A hub
// colored c plus a rim element colored c is a monochromatic {hub, r}
// quorum; if the whole rim disagrees with the hub, the rim itself is a
// monochromatic quorum of the opposite color. Under IID(p) the scan is a
// truncated geometric, so the expected probe count is O(1) for p bounded
// away from 0 and 1 — the paper's intuition for the wheel's cheapness.
func (w *Wheel) refProbeWitness(o probe.Oracle) probe.Witness {
	hubColor := o.Probe(0)
	for r := 1; r < w.n; r++ {
		if o.Probe(r) == hubColor {
			return probe.Witness{Color: hubColor, Set: bitset.FromSlice(w.n, []int{0, r})}
		}
	}
	// The entire rim disagrees with the hub: the rim is the witness.
	rim := bitset.New(w.n)
	rim.Fill()
	rim.Remove(0)
	return probe.Witness{Color: hubColor.Opposite(), Set: rim}
}

// refProbeWitness is Algorithm Probe_CW (Fig. 5):
// scan rows top to bottom, maintaining a monochromatic witness set W and
// a mode equal to its color. In each row, probe until an element of the
// current mode is found; if the row is exhausted, the row itself is
// monochromatic of the opposite color, so it replaces W and the mode
// flips.
func (c *CW) refProbeWitness(o probe.Oracle) probe.Witness {
	start, _ := c.RowRange(0)
	w := bitset.New(c.n)
	w.Add(start)
	mode := o.Probe(start)
	for i := 1; i < c.Rows(); i++ {
		lo, hi := c.RowRange(i)
		found := false
		for e := lo; e < hi; e++ {
			if o.Probe(e) == mode {
				w.Add(e)
				found = true
				break
			}
		}
		if !found {
			w.Clear()
			for e := lo; e < hi; e++ {
				w.Add(e)
			}
			mode = mode.Opposite()
		}
	}
	return probe.Witness{Color: mode, Set: w}
}

// refProbeWitness is Algorithm Probe_Tree (§3.3):
// probe the root, recursively find a witness for the right subtree and,
// only if its color differs from the root's, for the left subtree. The
// three colors cannot be pairwise distinct, so a monochromatic
// subtree/root combination always emerges.
func (t *Tree) refProbeWitness(o probe.Oracle) probe.Witness {
	return t.probeAt(o, t.Root())
}

func (t *Tree) probeAt(o probe.Oracle, v int) probe.Witness {
	rootColor := o.Probe(v)
	if t.IsLeaf(v) {
		return probe.Witness{Color: rootColor, Set: bitset.FromSlice(t.n, []int{v})}
	}
	wr := t.probeAt(o, t.Right(v))
	if wr.Color == rootColor {
		wr.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: wr.Set}
	}
	wl := t.probeAt(o, t.Left(v))
	if wl.Color == rootColor {
		wl.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: wl.Set}
	}
	// wl and wr disagree with the root, hence agree with each other.
	wl.Set.UnionWith(wr.Set)
	return probe.Witness{Color: wl.Color, Set: wl.Set}
}

// refProbeWitness is Algorithm Probe_HQS (§3.4):
// evaluate each 2-of-3 gate by recursively evaluating its first two
// children and the third only when they disagree. The strategy is h-good
// and, by Theorem 3.9, optimal in the probabilistic model at p = 1/2.
func (q *HQS) refProbeWitness(o probe.Oracle) probe.Witness {
	return q.probeAt(o, 0, q.n)
}

func (q *HQS) probeAt(o probe.Oracle, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{
			Color: o.Probe(start),
			Set:   bitset.FromSlice(q.n, []int{start}),
		}
	}
	third := size / 3
	w0 := q.probeAt(o, start, third)
	w1 := q.probeAt(o, start+third, third)
	if w0.Color == w1.Color {
		w0.Set.UnionWith(w1.Set)
		return probe.Witness{Color: w0.Color, Set: w0.Set}
	}
	w2 := q.probeAt(o, start+2*third, third)
	return mergeMajority(w2, w0, w1)
}

// mergeMajority combines the deciding child witness with whichever of the
// other two child witnesses shares its color, yielding the gate witness.
func mergeMajority(decider, a, b probe.Witness) probe.Witness {
	match := a
	if b.Color == decider.Color {
		match = b
	}
	set := decider.Set.Clone()
	set.UnionWith(match.Set)
	return probe.Witness{Color: decider.Color, Set: set}
}

// refProbeWitness works by probing elements in order of
// decreasing weight until one color accumulates a strict majority of the
// total weight. Heavy elements resolve the most weight per probe, which
// makes the descending order the natural greedy strategy in the
// probabilistic model (it is exactly Probe_Maj on unit weights).
func (v *Vote) refProbeWitness(o probe.Oracle) probe.Witness {
	order := v.probeOrder()
	t := v.Threshold()
	greens := bitset.New(v.Size())
	reds := bitset.New(v.Size())
	greenWeight, redWeight := 0, 0
	for _, e := range order {
		if o.Probe(e) == coloring.Green {
			greens.Add(e)
			greenWeight += v.weights[e]
			if greenWeight >= t {
				return probe.Witness{Color: coloring.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			redWeight += v.weights[e]
			if redWeight >= t {
				return probe.Witness{Color: coloring.Red, Set: reds}
			}
		}
	}
	panic("systems: Vote.ProbeWitness exhausted the universe without a witness")
}

// refProbeWitness works by short-circuit gate evaluation:
// children are evaluated left to right and a gate stops as soon as one
// color reaches the gate threshold (m+1)/2. For m = 3 this is exactly
// Probe_HQS.
func (r *RecMaj) refProbeWitness(o probe.Oracle) probe.Witness {
	return r.probeAt(o, 0, r.n)
}

func (r *RecMaj) probeAt(o probe.Oracle, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{Color: o.Probe(start), Set: bitset.FromSlice(r.n, []int{start})}
	}
	sub := size / r.m
	t := r.GateThreshold()
	greens, reds := 0, 0
	greenSet := bitset.New(r.n)
	redSet := bitset.New(r.n)
	for i := 0; i < r.m; i++ {
		w := r.probeAt(o, start+i*sub, sub)
		if w.Color == coloring.Green {
			greens++
			greenSet.UnionWith(w.Set)
			if greens == t {
				return probe.Witness{Color: coloring.Green, Set: greenSet}
			}
		} else {
			reds++
			redSet.UnionWith(w.Set)
			if reds == t {
				return probe.Witness{Color: coloring.Red, Set: redSet}
			}
		}
	}
	panic("systems: RecMaj.ProbeWitness: gate undecided after all children (invalid arity)")
}

// refProbeWitnessRandomized is Algorithm
// R_Probe_Maj (§4.1): probe elements uniformly at random without
// replacement until one color reaches the quorum threshold. Its
// worst-case expected probe count is n - (n-1)/(n+3) (Theorem 4.2).
func (m *Maj) refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	t := m.Threshold()
	greens := bitset.New(m.n)
	reds := bitset.New(m.n)
	for _, e := range rng.Perm(m.n) {
		if o.Probe(e) == coloring.Green {
			greens.Add(e)
			if greens.Count() == t {
				return probe.Witness{Color: coloring.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			if reds.Count() == t {
				return probe.Witness{Color: coloring.Red, Set: reds}
			}
		}
	}
	panic("systems: Maj.ProbeWitnessRandomized exhausted the universe without a witness")
}

// refProbeWitnessRandomized is the hub-first
// strategy of refProbeWitness with the rim scanned in uniformly random
// order, so no fixed rim ordering can be targeted by an adversary.
func (w *Wheel) refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	hubColor := o.Probe(0)
	for _, off := range rng.Perm(w.n - 1) {
		r := off + 1
		if o.Probe(r) == hubColor {
			return probe.Witness{Color: hubColor, Set: bitset.FromSlice(w.n, []int{0, r})}
		}
	}
	rim := bitset.New(w.n)
	rim.Fill()
	rim.Remove(0)
	return probe.Witness{Color: hubColor.Opposite(), Set: rim}
}

// refProbeWitnessRandomized is Algorithm
// R_Probe_CW (§4.2): starting from the bottom row, probe each row in
// uniformly random order until elements of both colors are seen, moving
// up; stop at the first monochromatic row, which together with the
// recorded same-colored representatives below forms the witness.
func (c *CW) refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	k := c.Rows()
	// rep[i][color] is an element of row i observed with that color.
	repGreen := make([]int, k)
	repRed := make([]int, k)
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
			w := bitset.New(c.n)
			for e := lo; e < hi; e++ {
				w.Add(e)
			}
			for i := j + 1; i < k; i++ {
				if mode == coloring.Green {
					w.Add(repGreen[i])
				} else {
					w.Add(repRed[i])
				}
			}
			return probe.Witness{Color: mode, Set: w}
		}
	}
	// Unreachable: the top row has width 1 and is always monochromatic.
	panic("systems: CW.ProbeWitnessRandomized passed the top row without a witness")
}

// refProbeWitnessRandomized is Algorithm
// R_Probe_Tree (§4.3): at every subtree choose uniformly among three
// probe orders — root then left subtree (right only if needed), root then
// right subtree (left only if needed), or both subtrees first (root only
// if they disagree). PCR ≤ 5n/6 + 1/6 (Theorem 4.7).
func (t *Tree) refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return t.rProbeAt(o, rng, t.Root())
}

func (t *Tree) rProbeAt(o probe.Oracle, rng *rand.Rand, v int) probe.Witness {
	if t.IsLeaf(v) {
		return probe.Witness{Color: o.Probe(v), Set: bitset.FromSlice(t.n, []int{v})}
	}
	switch rng.IntN(3) {
	case 0:
		return t.rProbeRootFirst(o, rng, v, t.Left(v), t.Right(v))
	case 1:
		return t.rProbeRootFirst(o, rng, v, t.Right(v), t.Left(v))
	default:
		wl := t.rProbeAt(o, rng, t.Left(v))
		wr := t.rProbeAt(o, rng, t.Right(v))
		if wl.Color == wr.Color {
			wl.Set.UnionWith(wr.Set)
			return probe.Witness{Color: wl.Color, Set: wl.Set}
		}
		rootColor := o.Probe(v)
		match := wl
		if wr.Color == rootColor {
			match = wr
		}
		match.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: match.Set}
	}
}

// rProbeRootFirst probes the root and subtree first; if their colors
// disagree it falls back to the other subtree, whose witness color must
// match either the root or the first subtree.
func (t *Tree) rProbeRootFirst(o probe.Oracle, rng *rand.Rand, v, first, second int) probe.Witness {
	rootColor := o.Probe(v)
	w1 := t.rProbeAt(o, rng, first)
	if w1.Color == rootColor {
		w1.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: w1.Set}
	}
	w2 := t.rProbeAt(o, rng, second)
	if w2.Color == rootColor {
		w2.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: w2.Set}
	}
	w1.Set.UnionWith(w2.Set)
	return probe.Witness{Color: w1.Color, Set: w1.Set}
}

// refProbeWitnessRandomized is Algorithm
// IR_Probe_HQS (Fig. 8): the improved randomized HQS prober. To evaluate
// a gate of height >= 2 it fully evaluates a random child r1, then peeks
// at a random grandchild of a second random child r2. If the grandchild
// agrees with r1 the algorithm finishes evaluating r2 (hoping to confirm
// the majority); otherwise it suspects r2 is the minority child and
// evaluates r3 first. PCR = O(n^0.887) (Theorem 4.10).
//
// Following the paper, "evaluating" a node means evaluating its children
// in uniformly random order until its value is determined, where each
// child evaluation is a recursive IR call; the recursion therefore
// descends two levels at a time.
func (q *HQS) refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return q.irEval(o, rng, 0, q.n)
}

// irEval evaluates the subtree [start, start+size) with the IR strategy.
func (q *HQS) irEval(o probe.Oracle, rng *rand.Rand, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{Color: o.Probe(start), Set: bitset.FromSlice(q.n, []int{start})}
	}
	if size == 3 {
		return q.irPlainEval(o, rng, start, size)
	}
	third := size / 3
	order := rng.Perm(3)
	r1 := start + order[0]*third
	r2 := start + order[1]*third
	r3 := start + order[2]*third

	v1 := q.irPlainEval(o, rng, r1, third)
	ninth := third / 3
	gcIdx := rng.IntN(3)
	gc := q.irEval(o, rng, r2+gcIdx*ninth, ninth)

	if gc.Color == v1.Color {
		v2 := q.irContinueEval(o, rng, r2, third, gcIdx, gc)
		if v2.Color == v1.Color {
			v1.Set.UnionWith(v2.Set)
			return probe.Witness{Color: v1.Color, Set: v1.Set}
		}
		v3 := q.irPlainEval(o, rng, r3, third)
		return mergeMajority(v3, v1, v2)
	}
	v3 := q.irPlainEval(o, rng, r3, third)
	if v3.Color == v1.Color {
		v1.Set.UnionWith(v3.Set)
		return probe.Witness{Color: v1.Color, Set: v1.Set}
	}
	v2 := q.irContinueEval(o, rng, r2, third, gcIdx, gc)
	return mergeMajority(v2, v1, v3)
}

// irPlainEval evaluates the gate at [start, start+size) by examining its
// children in uniformly random order (each child via a recursive IR
// call), stopping as soon as two children agree.
func (q *HQS) irPlainEval(o probe.Oracle, rng *rand.Rand, start, size int) probe.Witness {
	third := size / 3
	order := rng.Perm(3)
	w0 := q.irEval(o, rng, start+order[0]*third, third)
	w1 := q.irEval(o, rng, start+order[1]*third, third)
	if w0.Color == w1.Color {
		w0.Set.UnionWith(w1.Set)
		return probe.Witness{Color: w0.Color, Set: w0.Set}
	}
	w2 := q.irEval(o, rng, start+order[2]*third, third)
	return mergeMajority(w2, w0, w1)
}

// irContinueEval finishes evaluating the gate at [start, start+size)
// given that its child at knownIdx has already been evaluated to known.
func (q *HQS) irContinueEval(o probe.Oracle, rng *rand.Rand, start, size, knownIdx int, known probe.Witness) probe.Witness {
	third := size / 3
	rest := make([]int, 0, 2)
	for i := 0; i < 3; i++ {
		if i != knownIdx {
			rest = append(rest, i)
		}
	}
	if rng.IntN(2) == 1 {
		rest[0], rest[1] = rest[1], rest[0]
	}
	w1 := q.irEval(o, rng, start+rest[0]*third, third)
	if w1.Color == known.Color {
		w1.Set.UnionWith(known.Set)
		return probe.Witness{Color: w1.Color, Set: w1.Set}
	}
	w2 := q.irEval(o, rng, start+rest[1]*third, third)
	return mergeMajority(w2, known, w1)
}

// refProbeWitnessRandomized works in the spirit
// of R_Probe_Maj: probe elements in uniformly random order until one
// color accumulates a strict weight majority. Randomizing the order
// removes the adversary's leverage over the fixed descending-weight scan
// of ProbeWitness.
func (v *Vote) refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	t := v.Threshold()
	n := len(v.weights)
	greens := bitset.New(n)
	reds := bitset.New(n)
	greenWeight, redWeight := 0, 0
	for _, e := range rng.Perm(n) {
		if o.Probe(e) == coloring.Green {
			greens.Add(e)
			greenWeight += v.weights[e]
			if greenWeight >= t {
				return probe.Witness{Color: coloring.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			redWeight += v.weights[e]
			if redWeight >= t {
				return probe.Witness{Color: coloring.Red, Set: reds}
			}
		}
	}
	panic("systems: Vote.ProbeWitnessRandomized exhausted the universe without a witness")
}

// refProbeWitnessRandomized works by evaluating
// every gate's children in uniformly random order with short-circuit at
// the gate threshold — the m-ary generalization of Algorithm R_Probe_HQS
// (Fig. 7); for m = 3 the two coincide.
func (r *RecMaj) refProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return r.rProbeAt(o, rng, 0, r.n)
}

func (r *RecMaj) rProbeAt(o probe.Oracle, rng *rand.Rand, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{Color: o.Probe(start), Set: bitset.FromSlice(r.n, []int{start})}
	}
	sub := size / r.m
	t := r.GateThreshold()
	greens, reds := 0, 0
	greenSet := bitset.New(r.n)
	redSet := bitset.New(r.n)
	for _, i := range rng.Perm(r.m) {
		w := r.rProbeAt(o, rng, start+i*sub, sub)
		if w.Color == coloring.Green {
			greens++
			greenSet.UnionWith(w.Set)
			if greens == t {
				return probe.Witness{Color: coloring.Green, Set: greenSet}
			}
		} else {
			reds++
			redSet.UnionWith(w.Set)
			if reds == t {
				return probe.Witness{Color: coloring.Red, Set: redSet}
			}
		}
	}
	panic("systems: RecMaj.ProbeWitnessRandomized: gate undecided after all children")
}
