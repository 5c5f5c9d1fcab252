package exec

import mrand "math/rand"

// Rand is a deterministic RNG stream. It embeds *math/rand.Rand so the
// full distribution surface (Float64, NormFloat64, ExpFloat64, Intn,
// Perm, Shuffle, ...) is available, but is backed by a 32-byte
// xoshiro256++ source instead of math/rand's ~5 KB lagged-Fibonacci
// state, so deriving a stream per request is cheap.
//
// Rand is intentionally a distinct type from *math/rand.Rand: APIs that
// take *exec.Rand advertise that their draws come from a named, derived
// stream rather than an ambient generator.
type Rand struct {
	*mrand.Rand
	src *xoshiro // the Rand's source, kept so Clone can copy its position
}

// NewRand returns a stream seeded from a 64-bit value. The seed is
// expanded into the xoshiro state with SplitMix64, as recommended by the
// xoshiro authors, so low-entropy seeds (0, 1, 2, ...) still produce
// well-separated sequences.
func NewRand(seed uint64) *Rand {
	s := &xoshiro{}
	s.state[0] = splitmix64(seed)
	s.state[1] = splitmix64(s.state[0])
	s.state[2] = splitmix64(s.state[1])
	s.state[3] = splitmix64(s.state[2])
	return &Rand{Rand: mrand.New(s), src: s}
}

// Clone returns an independent stream positioned where r stands: both yield
// the same draws from here on, and drawing from one never moves the other.
// Every distribution method draws from the source alone, so the copy is
// exact; only bytes buffered by a partial Read are not carried over.
func (r *Rand) Clone() *Rand {
	s := *r.src
	return &Rand{Rand: mrand.New(&s), src: &s}
}

// xoshiro is the xoshiro256++ generator of Blackman & Vigna
// (https://prng.di.unimi.it/). 256 bits of state, period 2^256-1,
// passes BigCrush; more than adequate for simulation noise.
type xoshiro struct {
	state [4]uint64
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (s *xoshiro) Uint64() uint64 {
	result := rotl(s.state[0]+s.state[3], 23) + s.state[0]
	t := s.state[1] << 17
	s.state[2] ^= s.state[0]
	s.state[3] ^= s.state[1]
	s.state[1] ^= s.state[2]
	s.state[0] ^= s.state[3]
	s.state[2] ^= t
	s.state[3] = rotl(s.state[3], 45)
	return result
}

// Int63 implements math/rand.Source.
func (s *xoshiro) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements math/rand.Source. It re-expands the state as NewRand
// does, so Seed(n) on an existing stream matches a fresh NewRand(n).
func (s *xoshiro) Seed(seed int64) {
	s.state[0] = splitmix64(uint64(seed))
	s.state[1] = splitmix64(s.state[0])
	s.state[2] = splitmix64(s.state[1])
	s.state[3] = splitmix64(s.state[2])
}
