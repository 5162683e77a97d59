package systems

import (
	"fmt"

	"probequorum/internal/quorum"
)

// Every construction in this package writes its characteristic function
// once, as ContainsQuorumWords over a []uint64 wide mask in the
// internal/bitset word layout, so membership scales to
// quorum.MaxWideUniverse elements with no enumeration: popcount over
// words for Maj, hub test plus rim popcount for Wheel, per-row word-window
// tests for CW, gate recursions over word bits for Tree, HQS and RecMaj,
// and a weighted word scan for Vote. ContainsQuorum and ContainsQuorumMask
// are one-line adapters onto it: the bitset's backing words, and (for n <=
// quorum.MaskWords, after maskGuard) a one-word slice that stays on the
// stack. The differentials in mask_test.go and widemask_test.go compare
// all three entry points against the bitset reference in
// reference_test.go.
var (
	_ quorum.WideMaskSystem = (*Maj)(nil)
	_ quorum.WideMaskSystem = (*Wheel)(nil)
	_ quorum.WideMaskSystem = (*CW)(nil)
	_ quorum.WideMaskSystem = (*Tree)(nil)
	_ quorum.WideMaskSystem = (*HQS)(nil)
	_ quorum.WideMaskSystem = (*Vote)(nil)
	_ quorum.WideMaskSystem = (*RecMaj)(nil)
)

// Every construction also implements quorum.MaskSystem, whose
// QuorumMasks enumerates the minimal quorums natively as uint64 masks.
var (
	_ quorum.MaskSystem = (*Maj)(nil)
	_ quorum.MaskSystem = (*Wheel)(nil)
	_ quorum.MaskSystem = (*CW)(nil)
	_ quorum.MaskSystem = (*Tree)(nil)
	_ quorum.MaskSystem = (*HQS)(nil)
	_ quorum.MaskSystem = (*Vote)(nil)
	_ quorum.MaskSystem = (*RecMaj)(nil)
)

// maskGuard panics when the universe does not fit one machine word; the
// mask methods are defined only for n <= quorum.MaskWords.
func maskGuard(name string, n int) {
	if n > quorum.MaskWords {
		panic(fmt.Sprintf("systems: %s mask path requires n <= %d, got %d", name, quorum.MaskWords, n))
	}
}
