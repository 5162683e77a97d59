package probe

import (
	"errors"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
)

func maj3(t *testing.T) *quorum.Explicit {
	t.Helper()
	e, err := quorum.NewExplicit("Maj3", 3, []*bitset.Set{
		bitset.FromSlice(3, []int{0, 1}),
		bitset.FromSlice(3, []int{1, 2}),
		bitset.FromSlice(3, []int{0, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOracleCountsDistinctProbes(t *testing.T) {
	col := coloring.FromReds(4, []int{2})
	o := NewOracle(col)
	if o.Probes() != 0 {
		t.Errorf("fresh oracle Probes = %d", o.Probes())
	}
	if got := o.Probe(2); got != coloring.Red {
		t.Errorf("Probe(2) = %s, want red", got)
	}
	if got := o.Probe(0); got != coloring.Green {
		t.Errorf("Probe(0) = %s, want green", got)
	}
	o.Probe(2) // repeat
	if o.Probes() != 2 {
		t.Errorf("Probes = %d, want 2 (distinct)", o.Probes())
	}
	order := o.Order()
	if len(order) != 2 || order[0] != 2 || order[1] != 0 {
		t.Errorf("Order = %v, want [2 0]", order)
	}
	probed := o.Probed()
	if !probed.Contains(2) || !probed.Contains(0) || probed.Contains(1) {
		t.Errorf("Probed = %v", probed)
	}
	// Probed returns a copy.
	probed.Add(1)
	if o.Probes() != 2 {
		t.Error("Probed returned aliased set")
	}
}

func TestOracleReset(t *testing.T) {
	o := NewOracle(coloring.New(3))
	o.Probe(0)
	o.Reset()
	if o.Probes() != 0 || len(o.Order()) != 0 {
		t.Error("Reset did not clear the probe log")
	}
}

func TestStateOf(t *testing.T) {
	sys := maj3(t)
	state, err := StateOf(sys, coloring.FromReds(3, []int{0}))
	if err != nil || state != coloring.Green {
		t.Errorf("one red: state=%v err=%v, want green", state, err)
	}
	state, err = StateOf(sys, coloring.FromReds(3, []int{0, 1}))
	if err != nil || state != coloring.Red {
		t.Errorf("two reds: state=%v err=%v, want red", state, err)
	}
	// A non-ND family: single quorum {0,1} over 3 elements.
	bad, err := quorum.NewExplicit("dom", 3, []*bitset.Set{bitset.FromSlice(3, []int{0, 1})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StateOf(bad, coloring.FromReds(3, []int{0})); !errors.Is(err, ErrAmbiguousSystemState) {
		t.Errorf("StateOf(non-ND) err = %v, want ErrAmbiguousSystemState", err)
	}
}

func TestVerifyAcceptsSoundWitness(t *testing.T) {
	sys := maj3(t)
	col := coloring.FromReds(3, []int{2})
	o := NewOracle(col)
	o.Probe(0)
	o.Probe(1)
	w := Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{0, 1})}
	if err := Verify(sys, w, col, o.Probed()); err != nil {
		t.Errorf("Verify = %v, want nil", err)
	}
	// Also valid without probe accounting.
	if err := Verify(sys, w, col, nil); err != nil {
		t.Errorf("Verify(nil probed) = %v, want nil", err)
	}
}

func TestVerifyRejections(t *testing.T) {
	sys := maj3(t)
	col := coloring.FromReds(3, []int{2})

	cases := []struct {
		name    string
		w       Witness
		probed  *bitset.Set
		wantErr error
	}{
		{
			name:    "nil set",
			w:       Witness{Color: coloring.Green},
			wantErr: ErrWitnessNotQuorum,
		},
		{
			name:    "not a quorum",
			w:       Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{0})},
			wantErr: ErrWitnessNotQuorum,
		},
		{
			name:    "wrong color",
			w:       Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{1, 2})},
			wantErr: ErrWitnessWrongColor,
		},
		{
			name:    "unprobed element",
			w:       Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{0, 1})},
			probed:  bitset.FromSlice(3, []int{0}),
			wantErr: ErrWitnessUnprobed,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := Verify(sys, c.w, col, c.probed); !errors.Is(err, c.wantErr) {
				t.Errorf("Verify = %v, want %v", err, c.wantErr)
			}
		})
	}
}

func TestVerifyWrongConclusion(t *testing.T) {
	sys := maj3(t)
	// All green, but the witness claims a red quorum of... impossible to
	// build a red witness with correct colors here, so instead color two
	// reds and claim green on the remaining pair — also impossible. Use a
	// coloring where witness elements match color but the conclusion is
	// inverted: reds = {0,1}, witness = green {2}? Not a quorum. The wrong-
	// conclusion branch needs a sound-looking monochromatic quorum of the
	// minority color, which cannot exist in an ND coterie; verify instead
	// that the check is unreachable for Maj3 by exhausting colorings.
	coloring.All(3, func(col *coloring.Coloring) bool {
		state, err := StateOf(sys, col)
		if err != nil {
			t.Fatalf("StateOf(%s): %v", col, err)
		}
		set := col.MonochromaticSet(state)
		if !sys.ContainsQuorum(set) {
			t.Fatalf("state color class contains no quorum for %s", col)
		}
		return true
	})
}

func TestWitnessString(t *testing.T) {
	w := Witness{Color: coloring.Red, Set: bitset.FromSlice(3, []int{0, 2})}
	if got, want := w.String(), "red quorum {1, 3}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestWordsOracleViaDelegates pins the delegating words oracle: colors
// and probe accounting come from the source, the arena is the oracle's
// own, and a panic raised by the source reaches the caller unchanged.
func TestWordsOracleViaDelegates(t *testing.T) {
	col := coloring.FromReds(70, []int{3, 65})
	src := NewOracle(col)
	o := NewWordsOracleVia(70, src)
	if o.Words() != 2 || len(o.AcquireWords()) != 2 {
		t.Fatalf("arena buffers of %d words, want 2", o.Words())
	}
	for _, e := range []int{65, 0, 3, 65} {
		if got, want := o.Probe(e), col.Of(e); got != want {
			t.Errorf("Probe(%d) = %s, want %s", e, got, want)
		}
	}
	if o.Probes() != 3 || src.Probes() != 3 {
		t.Errorf("Probes = %d (source %d), want 3", o.Probes(), src.Probes())
	}
	if !o.Probed().Equal(bitset.FromSlice(70, []int{0, 3, 65})) {
		t.Errorf("Probed = %v", o.Probed())
	}
	if got := src.Order(); len(got) != 3 || got[0] != 65 || got[1] != 0 || got[2] != 3 {
		t.Errorf("source first-probe order %v, want [65 0 3]", got)
	}

	type stop struct{}
	defer func() {
		if r := recover(); r != (stop{}) {
			t.Fatalf("recovered %v, want the source's panic value", r)
		}
	}()
	NewWordsOracleVia(70, panicOracle{stop{}}).Probe(1)
	t.Fatal("source panic was swallowed")
}

// panicOracle panics with its value on every probe.
type panicOracle struct{ v any }

func (p panicOracle) Probe(int) coloring.Color { panic(p.v) }
func (p panicOracle) Probes() int              { return 0 }
func (p panicOracle) Probed() *bitset.Set      { return nil }
