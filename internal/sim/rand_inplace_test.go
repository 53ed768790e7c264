package sim

import (
	"math"
	"testing"
)

// refSeedState is the splitmix64 seeding every stream in the repository
// was generated with, kept here independently of Seed so a change to the
// seeding shows up as a state mismatch rather than as silently new streams.
func refSeedState(seed uint64) [4]uint64 {
	var s [4]uint64
	x := seed
	for i := range s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	return s
}

// oracleSeeds are the edge seeds plus 100 seeded random ones.
func oracleSeeds() []uint64 {
	seeds := []uint64{0, 1, math.MaxUint64}
	g := NewRand(20050101)
	for i := 0; i < 100; i++ {
		seeds = append(seeds, g.Uint64())
	}
	return seeds
}

// sameDraws requires a and b to yield the same n draws, cycling through
// Uint64, Float64 and Norm so that consecutive Norm calls alternate between
// a fresh Box–Muller pair and its cached spare.
func sameDraws(t *testing.T, what string, a, b *Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var x, y uint64
		switch i % 3 {
		case 0:
			x, y = a.Uint64(), b.Uint64()
		case 1:
			x, y = math.Float64bits(a.Float64()), math.Float64bits(b.Float64())
		default:
			x, y = math.Float64bits(a.Norm(1, 2)), math.Float64bits(b.Norm(1, 2))
		}
		if x != y {
			t.Fatalf("%s: draw %d differs: %#x vs %#x", what, i, x, y)
		}
	}
}

// dirty leaves r mid-stream with a cached Box–Muller spare, so an in-place
// seed that forgot part of the state would show.
func dirty(r *Rand) {
	r.Seed(99)
	r.Norm(0, 1)
	if !r.hasSpare {
		panic("dirty: no spare cached")
	}
}

// TestInPlaceStreamsMatchAllocated is the stream oracle for sources held
// by value: Seed and SplitInto on an embedded, previously used Rand give
// the same 10,000 draws as NewRand and Split, and NewRand's state is the
// reference splitmix64 seeding.
func TestInPlaceStreamsMatchAllocated(t *testing.T) {
	const draws = 10000
	for _, seed := range oracleSeeds() {
		heap := NewRand(seed)
		if heap.s != refSeedState(seed) || heap.hasSpare {
			t.Fatalf("seed %#x: NewRand state %v differs from the reference seeding", seed, heap.s)
		}
		// An owner holding its streams by value, as a device block does.
		var block struct {
			tag  uint64
			rand [3]Rand
		}
		for i := range block.rand {
			dirty(&block.rand[i])
		}
		block.rand[0].Seed(seed)
		sameDraws(t, "Seed", heap, &block.rand[0], draws)

		parent := NewRand(seed)
		child := parent.Split()
		block.rand[1].Seed(seed)
		block.rand[1].SplitInto(&block.rand[2])
		if want := refSeedState(NewRand(seed).Uint64() ^ 0xd1b54a32d192ed03); child.s != want {
			t.Fatalf("seed %#x: Split state differs from the reference seeding", seed)
		}
		sameDraws(t, "SplitInto child", child, &block.rand[2], draws)
		sameDraws(t, "SplitInto parent", parent, &block.rand[1], draws)
	}
}
