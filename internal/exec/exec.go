// Package exec provides request-scoped execution contexts for the
// simulation substrate: a deterministic splittable RNG and a virtual
// clock.
//
// The central object is Context. A root Context is created from a single
// int64 seed; child contexts and RNG streams are derived from it by *name*
// (a purpose string plus optional numeric identifiers) rather than by call
// order. Because every derivation is a pure hash of (parent seed, purpose,
// ids), a request's stochastic draws are a pure function of the root seed
// and the request's identity — independent of goroutine interleaving, of
// how many other requests ran before it, and of whether the harness runs
// serially or on a worker pool.
//
//	root := exec.NewRoot(42)
//	reqCtx := root.Child("req", uint64(reqID))
//	noise := reqCtx.Stream("sim.noise")   // same values every run
//
// Two streams derived under different purpose names are statistically
// independent; two streams derived under the same (seed, purpose, ids) are
// identical. This is what makes parallel evaluation byte-identical to the
// serial order.
package exec

import "sync"

// splitmix64 is the SplitMix64 finalizer. It is used both to mix derived
// seeds and to expand a single 64-bit seed into the xoshiro state vector.
// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// deriveSeed hashes (base, purpose, ids) into a new 64-bit seed.
// FNV-1a accumulates the name and identifiers; SplitMix64 finalizes so
// that structurally similar names (e.g. "req"/1 vs "req"/2) land far
// apart in seed space.
func deriveSeed(base uint64, purpose string, ids ...uint64) uint64 {
	h := fnvOffset
	h ^= base
	h *= fnvPrime
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= fnvPrime
	}
	for _, id := range ids {
		for s := 0; s < 64; s += 8 {
			h ^= (id >> s) & 0xff
			h *= fnvPrime
		}
	}
	return splitmix64(h)
}

// Clock is a virtual clock measured in seconds. It is safe for concurrent
// use; contexts derived from the same root share one clock.
type Clock struct {
	mu  sync.Mutex
	now float64
}

// NewClock returns a clock starting at the given time (seconds).
func NewClock(start float64) *Clock { return &Clock{now: start} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d seconds (negative d is ignored)
// and returns the new time.
func (c *Clock) Advance(d float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// Context is a request-scoped execution context: a derivation point for
// deterministic RNG streams and a shared virtual clock. Contexts are
// immutable; Child returns a new value (Rekey is the explicit exception
// for caller-owned scratch contexts). A nil *Context is not usable —
// components that accept an optional context must substitute their own
// fallback before drawing.
type Context struct {
	seed  uint64
	clock *Clock
}

// NewRoot creates a root context from a seed. The root owns a fresh
// virtual clock starting at zero.
func NewRoot(seed int64) *Context {
	return &Context{seed: splitmix64(uint64(seed)), clock: NewClock(0)}
}

// Child derives a context for a named sub-scope. The child shares the
// parent's clock; its seed is a pure function of the parent seed,
// purpose, and ids.
func (c *Context) Child(purpose string, ids ...uint64) *Context {
	return &Context{seed: deriveSeed(c.seed, purpose, ids...), clock: c.clock}
}

// Rekey repositions dst in place as the named child of c, reusing dst's
// storage — the allocation-free alternative to Child for a caller-owned
// scratch context. dst must not be retained past the scope of the call
// that rekeyed it or shared across goroutines while in use.
func (c *Context) Rekey(dst *Context, purpose string, ids ...uint64) {
	dst.seed = deriveSeed(c.seed, purpose, ids...)
	dst.clock = c.clock
}

// Stream derives a deterministic RNG stream by name. Repeated calls with
// the same arguments return independent *Rand values positioned at the
// same point in the same sequence.
func (c *Context) Stream(purpose string, ids ...uint64) *Rand {
	return NewRand(deriveSeed(c.seed, purpose, ids...))
}

// randPool recycles Rand streams for GetStream/PutStream: reseeding a
// xoshiro-backed Rand repositions it exactly at the head of the named
// sequence (see xoshiro.Seed), so a pooled stream is indistinguishable
// from a fresh one.
var randPool = sync.Pool{New: func() any { return NewRand(0) }}

// GetStream returns a pooled *Rand positioned at the head of the named
// stream — identical draws to Stream with the same arguments, without
// allocating. Pass it back to PutStream when the draws are done.
func (c *Context) GetStream(purpose string, ids ...uint64) *Rand {
	r := randPool.Get().(*Rand)
	r.Seed(int64(deriveSeed(c.seed, purpose, ids...)))
	return r
}

// PutStream recycles a stream obtained from GetStream. The caller must not
// use r afterwards.
func PutStream(r *Rand) { randPool.Put(r) }

// Seed derives a raw int64 seed by name, for components that still
// construct their own generators (e.g. snapshot-restored agents).
func (c *Context) Seed(purpose string, ids ...uint64) int64 {
	return int64(deriveSeed(c.seed, purpose, ids...))
}

// Clock returns the shared virtual clock.
func (c *Context) Clock() *Clock { return c.clock }

// Now returns the shared virtual clock's current time in seconds.
func (c *Context) Now() float64 { return c.clock.Now() }

// Advance moves the shared virtual clock forward by d seconds.
func (c *Context) Advance(d float64) float64 { return c.clock.Advance(d) }
