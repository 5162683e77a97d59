package systems

import (
	"sort"
	"testing"

	"probequorum/internal/quorum"
)

// maskFixtures returns one small instance per construction, each with a
// universe small enough for exhaustive 2^n enumeration.
func maskFixtures(t *testing.T) []quorum.MaskSystem {
	t.Helper()
	maj, err := NewMaj(7)
	if err != nil {
		t.Fatal(err)
	}
	wheel, err := NewWheel(6)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := NewCW([]int{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := NewTriang(4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewTree(2)
	if err != nil {
		t.Fatal(err)
	}
	hqs, err := NewHQS(2)
	if err != nil {
		t.Fatal(err)
	}
	vote, err := NewVote([]int{3, 2, 2, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRecMaj(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []quorum.MaskSystem{maj, wheel, cw, tri, tree, hqs, vote, rm}
}

// The two adapters, ContainsQuorumMask and ContainsQuorum, must agree
// with the bitset reference on every subset of the universe.
func TestContainsQuorumMaskMatchesBitset(t *testing.T) {
	for _, sys := range maskFixtures(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				set := quorum.SetOfMask(n, mask)
				want := sys.(refMember).refContainsQuorum(set)
				if got := sys.ContainsQuorumMask(mask); got != want {
					t.Fatalf("mask %#b: ContainsQuorumMask=%v, reference=%v", mask, got, want)
				}
				if got := sys.ContainsQuorum(set); got != want {
					t.Fatalf("mask %#b: ContainsQuorum=%v, reference=%v", mask, got, want)
				}
			}
		})
	}
}

// The native quorum mask enumeration must produce exactly the masks of
// the bitset enumeration (orders may differ).
func TestQuorumMasksMatchQuorums(t *testing.T) {
	for _, sys := range maskFixtures(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			got := sys.QuorumMasks()
			want := quorum.MasksOf(sys.Quorums())
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("QuorumMasks returned %d masks, Quorums %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mask %d: got %#b, want %#b", i, got[i], want[i])
				}
			}
		})
	}
}

// The mask path must refuse universes beyond one machine word rather than
// silently truncate.
func TestMaskGuardPanics(t *testing.T) {
	m, err := NewMaj(101)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ContainsQuorumMask accepted n > 64")
		}
	}()
	m.ContainsQuorumMask(0)
}
