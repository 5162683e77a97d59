package systems

import (
	"fmt"
	"strings"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// CW is a crumbling-wall quorum system (n1, ..., nk)-CW of [14]: the
// elements are arranged in k rows of the given widths, and a quorum is one
// full row j together with a single representative from every row below j.
//
// With n1 = 1 and ni >= 2 for i >= 2 the system is a nondominated coterie;
// NewCW enforces those conditions.
type CW struct {
	name    string
	spec    string // canonical spec string, e.g. "cw:1,3,2" or "triang:5"
	widths  []int
	offsets []int // offsets[i] is the index of the first element of row i
	n       int
	rows    []rowWindow // rows[i] is the word window of row i
}

// rowWindow is the word window of one row, precomputed at construction:
// the row's elements lie in words first..last, under firstMask in word
// first and lastMask in word last (the same combined mask when first ==
// last); every word strictly between is covered in full.
type rowWindow struct {
	first, last         int
	firstMask, lastMask uint64
}

// full reports whether every element of the row is set in words.
func (r *rowWindow) full(words []uint64) bool {
	if words[r.first]&r.firstMask != r.firstMask {
		return false
	}
	for i := r.first + 1; i < r.last; i++ {
		if words[i] != ^uint64(0) {
			return false
		}
	}
	return words[r.last]&r.lastMask == r.lastMask
}

// hit reports whether some element of the row is set in words.
func (r *rowWindow) hit(words []uint64) bool {
	if words[r.first]&r.firstMask != 0 {
		return true
	}
	for i := r.first + 1; i < r.last; i++ {
		if words[i] != 0 {
			return true
		}
	}
	return words[r.last]&r.lastMask != 0
}

var (
	_ quorum.System = (*CW)(nil)
	_ quorum.Finder = (*CW)(nil)
	_ quorum.Sized  = (*CW)(nil)
)

// NewCW returns the (widths[0], ..., widths[k-1])-CW system. To guarantee a
// nondominated coterie the first row must have width 1 and every later row
// width at least 2 (Peleg & Wool [14]).
func NewCW(widths []int) (*CW, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("systems: CW requires at least one row")
	}
	if widths[0] != 1 {
		return nil, fmt.Errorf("systems: CW first row must have width 1, got %d", widths[0])
	}
	for i := 1; i < len(widths); i++ {
		if widths[i] < 2 {
			return nil, fmt.Errorf("systems: CW row %d must have width >= 2, got %d", i+1, widths[i])
		}
	}
	w := make([]int, len(widths))
	copy(w, widths)
	offsets := make([]int, len(w))
	n := 0
	for i, wd := range w {
		offsets[i] = n
		n += wd
	}
	parts := make([]string, len(w))
	for i, wd := range w {
		parts[i] = fmt.Sprintf("%d", wd)
	}
	c := &CW{
		name:    fmt.Sprintf("CW(%s)", strings.Join(parts, ",")),
		spec:    fmt.Sprintf("cw:%s", strings.Join(parts, ",")),
		widths:  w,
		offsets: offsets,
		n:       n,
		rows:    make([]rowWindow, len(w)),
	}
	for i, wd := range w {
		lo, hi := offsets[i], offsets[i]+wd-1 // inclusive element range
		r := rowWindow{
			first:     lo / quorum.MaskWords,
			last:      hi / quorum.MaskWords,
			firstMask: ^bitset.LowMask(lo % quorum.MaskWords),
			lastMask:  bitset.LowMask(hi%quorum.MaskWords + 1),
		}
		if r.first == r.last {
			r.firstMask &= r.lastMask
			r.lastMask = r.firstMask
		}
		c.rows[i] = r
	}
	return c, nil
}

// NewTriang returns the Triang system with k rows: the (1, 2, ..., k)-CW
// of Lovász [9] and Erdős–Lovász [2].
func NewTriang(k int) (*CW, error) {
	if k < 1 {
		return nil, fmt.Errorf("systems: Triang requires k >= 1, got %d", k)
	}
	widths := make([]int, k)
	for i := range widths {
		widths[i] = i + 1
	}
	cw, err := NewCW(widths)
	if err != nil {
		return nil, err
	}
	cw.name = fmt.Sprintf("Triang(%d)", k)
	cw.spec = fmt.Sprintf("triang:%d", k)
	return cw, nil
}

// NewWheelCW returns the wheel system over n elements in its crumbling-wall
// representation (1, n-1)-CW, used to cross-validate Wheel.
func NewWheelCW(n int) (*CW, error) {
	if n < 3 {
		return nil, fmt.Errorf("systems: wheel CW requires n >= 3, got %d", n)
	}
	cw, err := NewCW([]int{1, n - 1})
	if err != nil {
		return nil, err
	}
	cw.name = fmt.Sprintf("WheelCW(%d)", n)
	return cw, nil
}

// Name implements quorum.System.
func (c *CW) Name() string { return c.name }

// Size implements quorum.System.
func (c *CW) Size() int { return c.n }

// Rows returns the number of rows k.
func (c *CW) Rows() int { return len(c.widths) }

// Widths returns a copy of the row widths.
func (c *CW) Widths() []int {
	w := make([]int, len(c.widths))
	copy(w, c.widths)
	return w
}

// Width returns the width of row i (0-based).
func (c *CW) Width(i int) int { return c.widths[i] }

// MaxWidth returns the width m of the widest row.
func (c *CW) MaxWidth() int {
	m := 0
	for _, w := range c.widths {
		if w > m {
			m = w
		}
	}
	return m
}

// RowRange returns the half-open element range [start, end) of row i.
func (c *CW) RowRange(i int) (start, end int) {
	return c.offsets[i], c.offsets[i] + c.widths[i]
}

// RowOf returns the row index containing element e.
func (c *CW) RowOf(e int) int {
	for i := range c.widths {
		if s, t := c.RowRange(i); e >= s && e < t {
			return i
		}
	}
	panic(fmt.Sprintf("systems: element %d out of range [0,%d)", e, c.n))
}

// ContainsQuorum implements quorum.System.
func (c *CW) ContainsQuorum(s *bitset.Set) bool { return c.ContainsQuorumWords(s.Words()) }

// MinQuorumSize implements quorum.Sized.
func (c *CW) MinQuorumSize() int {
	k := len(c.widths)
	best := c.n + 1
	for j := 0; j < k; j++ {
		if sz := c.widths[j] + (k - 1 - j); sz < best {
			best = sz
		}
	}
	return best
}

// MaxQuorumSize implements quorum.Sized.
func (c *CW) MaxQuorumSize() int {
	k := len(c.widths)
	best := 0
	for j := 0; j < k; j++ {
		if sz := c.widths[j] + (k - 1 - j); sz > best {
			best = sz
		}
	}
	return best
}

// Quorums implements quorum.System by explicit enumeration: for every row
// j, the full row crossed with every choice of representatives below.
// It panics when the count would exceed about a million.
func (c *CW) Quorums() []*bitset.Set {
	k := len(c.widths)
	total := 0
	for j := 0; j < k; j++ {
		cnt := 1
		for i := j + 1; i < k; i++ {
			cnt *= c.widths[i]
			if cnt > 1<<20 {
				panic(fmt.Sprintf("systems: CW.Quorums infeasible for %s", c.name))
			}
		}
		total += cnt
	}
	out := make([]*bitset.Set, 0, total)
	for j := 0; j < k; j++ {
		base := bitset.New(c.n)
		start, end := c.RowRange(j)
		for e := start; e < end; e++ {
			base.Add(e)
		}
		out = c.appendReps(out, base, j+1)
	}
	return out
}

// appendReps extends base with every choice of one representative from each
// row i >= row, appending completed quorums to out.
func (c *CW) appendReps(out []*bitset.Set, base *bitset.Set, row int) []*bitset.Set {
	if row == len(c.widths) {
		return append(out, base.Clone())
	}
	start, end := c.RowRange(row)
	for e := start; e < end; e++ {
		base.Add(e)
		out = c.appendReps(out, base, row+1)
		base.Remove(e)
	}
	return out
}

// ContainsQuorumMask implements quorum.MaskSystem.
func (c *CW) ContainsQuorumMask(mask uint64) bool {
	maskGuard("CW", c.n)
	return c.ContainsQuorumWords([]uint64{mask})
}

// ContainsQuorumWords implements quorum.WideMaskSystem and is CW's one
// membership test: the words contain a quorum iff some row j is full and
// every row below j is hit. The scan runs bottom-up over the precomputed
// row windows, so a row that misses ends it: every row above needs a
// representative from it.
func (c *CW) ContainsQuorumWords(words []uint64) bool {
	for j := len(c.rows) - 1; j >= 0; j-- {
		if c.rows[j].full(words) {
			return true
		}
		if j > 0 && !c.rows[j].hit(words) {
			return false
		}
	}
	return false
}

// QuorumMasks implements quorum.MaskSystem: for every row j, the full row
// mask ORed with every choice of one representative bit from each row
// below. It shares the feasibility panic of Quorums.
func (c *CW) QuorumMasks() []uint64 {
	maskGuard("CW", c.n)
	k := len(c.widths)
	var out []uint64
	for j := 0; j < k; j++ {
		cnt := 1
		for i := j + 1; i < k; i++ {
			cnt *= c.widths[i]
			if cnt > 1<<20 {
				panic(fmt.Sprintf("systems: CW.QuorumMasks infeasible for %s", c.name))
			}
		}
		// One word holds the universe, so the row window is one mask.
		out = c.appendRepMasks(out, c.rows[j].firstMask, j+1)
	}
	return out
}

// appendRepMasks extends base with every choice of one representative bit
// from each row i >= row, appending completed quorum masks to out.
func (c *CW) appendRepMasks(out []uint64, base uint64, row int) []uint64 {
	if row == len(c.widths) {
		return append(out, base)
	}
	start, end := c.RowRange(row)
	for e := start; e < end; e++ {
		out = c.appendRepMasks(out, base|bitset.Bit(e), row+1)
	}
	return out
}

// FindQuorumWithin implements quorum.Finder.
func (c *CW) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	k := len(c.widths)
	// reps[i] is an allowed representative of row i, or -1.
	reps := make([]int, k)
	full := make([]bool, k)
	for i := 0; i < k; i++ {
		start, end := c.RowRange(i)
		reps[i] = -1
		full[i] = true
		for e := start; e < end; e++ {
			if allowed.Contains(e) {
				if reps[i] < 0 {
					reps[i] = e
				}
			} else {
				full[i] = false
			}
		}
	}
	suffixHit := true
	best := -1
	for j := k - 1; j >= 0; j-- {
		if full[j] && suffixHit {
			best = j // keep scanning upward: prefer the highest (smallest) row
		}
		suffixHit = suffixHit && reps[j] >= 0
	}
	if best < 0 {
		return nil, false
	}
	q := bitset.New(c.n)
	start, end := c.RowRange(best)
	for e := start; e < end; e++ {
		q.Add(e)
	}
	for i := best + 1; i < k; i++ {
		q.Add(reps[i])
	}
	return q, true
}
