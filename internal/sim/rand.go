package sim

import "math"

// Rand is a small, fast, deterministic random source (splitmix64 core with a
// xoshiro256** state walk). It is intentionally independent of math/rand so
// that experiment streams are stable across Go releases.
type Rand struct {
	s [4]uint64

	// cached spare normal deviate for the Box-Muller transform
	hasSpare bool
	spare    float64
}

// NewRand returns a source seeded from the given value. Two sources built
// from the same seed yield identical streams.
func NewRand(seed uint64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed resets r in place to the stream NewRand(seed) yields, dropping any
// cached normal deviate. An owner that holds its Rand by value seeds it
// with Seed instead of allocating a separate source.
func (r *Rand) Seed(seed uint64) {
	*r = Rand{}
	// splitmix64 to spread the seed across the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent stream from this one. Use it to hand each
// model its own source so adding draws to one model does not perturb others.
func (r *Rand) Split() *Rand {
	c := new(Rand)
	r.SplitInto(c)
	return c
}

// SplitInto derives into dst, in place, the stream Split would return; it
// draws from r exactly as Split does.
func (r *Rand) SplitInto(dst *Rand) {
	dst.Seed(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0,n). It returns 0 for n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Bool reports true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, via the Box-Muller transform.
func (r *Rand) Norm(mean, sd float64) float64 {
	if sd <= 0 {
		return mean
	}
	if r.hasSpare {
		r.hasSpare = false
		return mean + sd*r.spare
	}
	var u, v, s float64
	for {
		u = r.Uniform(-1, 1)
		v = r.Uniform(-1, 1)
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + sd*u*m
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
