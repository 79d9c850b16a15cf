// Package rng provides deterministic, splittable pseudo-random number
// generation for the whole reproduction. Every stochastic component in the
// repository takes an explicit *rng.RNG so that experiments are
// reproducible bit-for-bit across runs and machines.
//
// The core generator is xoshiro256**, seeded through splitmix64 as its
// authors recommend. Children derived with Split are statistically
// independent streams, which lets concurrent workload generators share a
// single experiment seed without coordination.
package rng

import (
	"hash/fnv"
	"math"
)

// RNG is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; Split off a child per goroutine instead.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed expansion state and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
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

// Split derives an independent child stream identified by label. The same
// parent state and label always yield the same child, so callers should
// Split before drawing if they need stable children.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(r.Uint64() ^ h.Sum64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's unbiased bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	m := (x % bound)
	// Rejection for the tiny biased region.
	threshold := (-bound) % bound
	for x-m > ^uint64(0)-threshold {
		x = r.Uint64()
		m = x % bound
	}
	return int(m)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Normal returns a draw from N(mean, stddev²) using the polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Categorical returns an index drawn from the (not necessarily
// normalised) non-negative weight vector w. It panics if all weights are
// zero or any weight is negative.
func (r *RNG) Categorical(w []float64) int {
	total := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += x
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1 // floating-point slack
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
