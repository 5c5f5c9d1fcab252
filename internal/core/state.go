// Package core implements AutoScale itself (Section IV of the paper): the
// Table I state space with its discretization, the augmented action space of
// Section V-C, the reward of equation (5) with the Renergy estimator of
// equations (1)-(4), and the engine loop of Fig 8 — observe, select,
// execute, reward, update — on top of the Q-learning agent in internal/rl.
package core

import (
	"fmt"
	"sync/atomic"

	"autoscale/internal/dnn"
	"autoscale/internal/rl"
	"autoscale/internal/sim"
)

// Feature identifies one of the eight Table I state features.
type Feature int

// The Table I features, in table order.
const (
	FeatConv  Feature = iota // SCONV: number of CONV layers
	FeatFC                   // SFC: number of FC layers
	FeatRC                   // SRC: number of RC layers
	FeatMAC                  // SMAC: number of MAC operations
	FeatCoCPU                // SCo_CPU: CPU utilization of co-running apps
	FeatCoMem                // SCo_MEM: memory usage of co-running apps
	FeatRSSIW                // SRSSI_W: RSSI of the wireless LAN
	FeatRSSIP                // SRSSI_P: RSSI of the peer-to-peer network
	numFeatures
)

var featureNames = [...]string{
	"SCONV", "SFC", "SRC", "SMAC", "SCo_CPU", "SCo_MEM", "SRSSI_W", "SRSSI_P",
}

// String returns the Table I feature name.
func (f Feature) String() string {
	if int(f) < len(featureNames) {
		return featureNames[f]
	}
	return fmt.Sprintf("Feature(%d)", int(f))
}

// NumFeatures is the number of Table I features.
const NumFeatures = int(numFeatures)

// Observation is one raw (pre-discretization) state sample.
type Observation struct {
	NumConv int
	NumFC   int
	NumRC   int
	MACs    float64
	// CoCPU and CoMem are co-runner utilizations in percent (0..100).
	CoCPU float64
	CoMem float64
	// RSSIW and RSSIP are signal strengths in dBm.
	RSSIW float64
	RSSIP float64
}

// ObservationOf assembles the observation for a model under conditions c —
// what AutoScale's monitor reads from the runtime libraries and kernel APIs.
func ObservationOf(m *dnn.Model, c sim.Conditions) Observation {
	return Observation{
		NumConv: m.NumConv(),
		NumFC:   m.NumFC(),
		NumRC:   m.NumRC(),
		MACs:    m.MACs(),
		CoCPU:   c.Load.CPUUtil * 100,
		CoMem:   c.Load.MemUtil * 100,
		RSSIW:   c.RSSIWLAN,
		RSSIP:   c.RSSIP2P,
	}
}

// value extracts the raw scalar for a feature.
func (o Observation) value(f Feature) float64 {
	switch f {
	case FeatConv:
		return float64(o.NumConv)
	case FeatFC:
		return float64(o.NumFC)
	case FeatRC:
		return float64(o.NumRC)
	case FeatMAC:
		return o.MACs
	case FeatCoCPU:
		return o.CoCPU
	case FeatCoMem:
		return o.CoMem
	case FeatRSSIW:
		return o.RSSIW
	case FeatRSSIP:
		return o.RSSIP
	}
	return 0
}

// tableI holds the published Table I cut points (Kim & Wu, arXiv
// 2005.02544), feature by feature; a value v falls in the bin of the first
// cut strictly above it:
//
//	SCONV: small(<30) medium(<50) large(<90) larger(>=90)
//	SFC:   small(<10) large(>=10)
//	SRC:   small(<10) large(>=10)
//	SMAC:  small(<1000M) medium(<2000M) large(>=2000M)
//	SCo_CPU / SCo_MEM: none(0) small(<25) medium(<75) large(<=100)
//	SRSSI_W / SRSSI_P: regular(>-80dBm) weak(<=-80dBm)
//
// Table I counts exactly -80 dBm as weak ("<= -80"), so the RSSI cut sits
// just above the boundary. Every feature has at most 4 bins, so each bin is
// one digit of a state key.
var tableI = [NumFeatures][]float64{
	FeatConv:  {30, 50, 90},
	FeatFC:    {10},
	FeatRC:    {10},
	FeatMAC:   {1000e6, 2000e6},
	FeatCoCPU: {0.5, 25, 75},
	FeatCoMem: {0.5, 25, 75},
	FeatRSSIW: {-79.999},
	FeatRSSIP: {-79.999},
}

// bin returns the Table I bin of value v of feature f: how many of its
// ascending cuts are not above v, counted by a linear scan (at most 3 cuts).
// NaN compares above no cut, so it lands in the top bin.
func bin(f Feature, v float64) int {
	cuts := tableI[f]
	k := 0
	for k < len(cuts) && !(cuts[k] > v) {
		k++
	}
	return k
}

// StateSpace discretizes observations into dense state indices and their
// rl.State keys with the Table I bins. A feature may be disabled (for the
// paper's state-ablation study).
//
// StateSpace implements rl.Interner: every state is a mixed-radix number
// over the enabled feature bins (feature 0 most significant, so ascending
// index order equals ascending lexicographic key order), which lets the
// engine and agent run the decide path on int32 arithmetic with string keys
// rendered only at the checkpoint boundary.
type StateSpace struct {
	enabled [NumFeatures]bool

	// cache holds the lazily built radix table and pre-rendered keys.
	// Disable invalidates it; readers rebuild on demand.
	cache atomic.Pointer[internCache]
}

// internCache is the immutable derived indexing state of a StateSpace.
type internCache struct {
	size  int
	radix [NumFeatures]int32 // 1 for disabled features
	keys  []rl.State         // the key of every index
}

// NewStateSpace returns the Table I state space with every feature enabled:
// 4 x 2 x 2 x 3 x 4 x 4 x 2 x 2 = 3,072 states.
func NewStateSpace() *StateSpace {
	s := &StateSpace{}
	for i := range s.enabled {
		s.enabled[i] = true
	}
	return s
}

// Disable removes a feature from the state key (ablation). It returns the
// receiver for chaining.
func (s *StateSpace) Disable(f Feature) *StateSpace {
	if f >= 0 && f < numFeatures {
		s.enabled[f] = false
		s.cache.Store(nil)
	}
	return s
}

// Enabled reports whether feature f contributes to the state key.
func (s *StateSpace) Enabled(f Feature) bool { return f >= 0 && f < numFeatures && s.enabled[f] }

// Bins returns the number of bins for feature f.
func (s *StateSpace) Bins(f Feature) int {
	if f < 0 || f >= numFeatures {
		return 0
	}
	return len(tableI[f]) + 1
}

// Size returns the total number of distinct states (product of enabled
// feature bins). The paper's space has 3,072 states.
func (s *StateSpace) Size() int {
	n := 1
	for f := Feature(0); f < numFeatures; f++ {
		if s.enabled[f] {
			n *= s.Bins(f)
		}
	}
	return n
}

// cacheLoad returns the derived indexing tables, building them on first use
// (or after Disable). Concurrent rebuilds produce identical caches, so the
// last Store winning is harmless.
func (s *StateSpace) cacheLoad() *internCache {
	if c := s.cache.Load(); c != nil {
		return c
	}
	c := s.buildCache()
	s.cache.Store(c)
	return c
}

func (s *StateSpace) buildCache() *internCache {
	c := &internCache{size: 1}
	for f := Feature(0); f < numFeatures; f++ {
		r := 1
		if s.enabled[f] {
			r = s.Bins(f)
		}
		c.radix[f] = int32(r)
		c.size *= r
	}
	c.keys = make([]rl.State, c.size)
	var bins [NumFeatures]int
	for i := range c.keys {
		s.decodeEnabled(c, int32(i), &bins)
		c.keys[i] = renderBins(&bins)
	}
	return c
}

// decodeEnabled is decodeBins with disabled features decoded as -1, the form
// keys render from and BinsOf returns.
func (s *StateSpace) decodeEnabled(c *internCache, i int32, bins *[NumFeatures]int) {
	decodeBins(c, i, bins)
	for f := Feature(0); f < numFeatures; f++ {
		if !s.enabled[f] {
			bins[f] = -1
		}
	}
}

// decodeBins splits a dense index into per-feature bins (0 for radix-1
// features, including disabled ones). The caller guarantees i is in
// [0, c.size).
func decodeBins(c *internCache, i int32, bins *[NumFeatures]int) {
	for f := int(numFeatures) - 1; f >= 0; f-- {
		r := c.radix[f]
		bins[f] = int(i % r)
		i /= r
	}
}

// Index discretizes an observation straight to its dense state index —
// the allocation-free hot-path replacement for Key.
func (s *StateSpace) Index(o Observation) int32 {
	c := s.cacheLoad()
	idx := int32(0)
	for f := Feature(0); f < numFeatures; f++ {
		if !s.enabled[f] {
			continue
		}
		idx = idx*c.radix[f] + int32(bin(f, o.value(f)))
	}
	return idx
}

// KeyOf renders the canonical string key of a dense index (rl.Interner).
// The key comes from the pre-rendered table, so repeated calls return the
// same interned string without allocating.
func (s *StateSpace) KeyOf(i int32) rl.State {
	c := s.cacheLoad()
	if i < 0 || int(i) >= c.size {
		return ""
	}
	return c.keys[i]
}

// Lookup parses a canonical state key back to its dense index
// (rl.Interner): one digit or '*' per feature, '|'-separated. ok is false
// for keys this space cannot have rendered: wrong length, '*' mismatches
// against the ablation set, or bins out of range.
func (s *StateSpace) Lookup(key rl.State) (int32, bool) {
	if len(key) != 2*NumFeatures-1 {
		return 0, false
	}
	c := s.cacheLoad()
	idx := int32(0)
	for f := Feature(0); f < numFeatures; f++ {
		if f > 0 && key[2*f-1] != '|' {
			return 0, false
		}
		ch := key[2*f]
		if !s.enabled[f] {
			if ch != '*' {
				return 0, false
			}
			continue
		}
		if ch < '0' || ch > '9' {
			return 0, false
		}
		b := int32(ch - '0')
		if b >= c.radix[f] {
			return 0, false
		}
		idx = idx*c.radix[f] + b
	}
	return idx, true
}

// Key discretizes an observation into the Q-table state key. Disabled
// features render as "*" so ablated tables collapse their dimension.
func (s *StateSpace) Key(o Observation) rl.State {
	return s.cacheLoad().keys[s.Index(o)]
}

// renderBins renders per-feature bins into the canonical key string; -1
// renders as '*'.
func renderBins(bins *[NumFeatures]int) rl.State {
	var buf [2*NumFeatures - 1]byte
	for f := 0; f < NumFeatures; f++ {
		if f > 0 {
			buf[2*f-1] = '|'
		}
		if bins[f] < 0 {
			buf[2*f] = '*'
		} else {
			buf[2*f] = byte('0' + bins[f])
		}
	}
	return rl.State(buf[:])
}
