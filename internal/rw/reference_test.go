package rw

import (
	"probequorum/internal/bitset"
)

// This file is the test-only reference the role membership differentials
// compare against: each role's characteristic function written directly
// over a bitset. The production membership tests (ContainsQuorumWords and
// its two adapters) must agree with refContainsQuorum on every set.

// refMember is a role's reference characteristic function.
type refMember interface {
	refContainsQuorum(s *bitset.Set) bool
}

// refContainsQuorum: s holds at least k elements.
func (c *Choose) refContainsQuorum(s *bitset.Set) bool { return s.Count() >= c.k }

// refContainsQuorum: some full row lies inside s.
func (g *gridRows) refContainsQuorum(s *bitset.Set) bool {
	for _, row := range g.rows {
		if row.SubsetOf(s) {
			return true
		}
	}
	return false
}

// refContainsQuorum: s meets every row.
func (g *gridTransversal) refContainsQuorum(s *bitset.Set) bool {
	for _, row := range g.rows {
		if !row.Intersects(s) {
			return false
		}
	}
	return true
}

// refContainsQuorum: some listed quorum lies inside s.
func (e *explicitRole) refContainsQuorum(s *bitset.Set) bool {
	for _, q := range e.quorums {
		if q.SubsetOf(s) {
			return true
		}
	}
	return false
}
