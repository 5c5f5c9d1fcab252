package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/rl"
	"autoscale/internal/sim"
)

func TestStateSpaceSizeMatchesPaper(t *testing.T) {
	s := NewStateSpace()
	// Table I: 4 x 2 x 2 x 3 x 4 x 4 x 2 x 2 = 3,072 states.
	if got := s.Size(); got != 3072 {
		t.Errorf("state space size = %d, want 3072", got)
	}
}

func TestTableIBins(t *testing.T) {
	s := NewStateSpace()
	want := map[Feature]int{
		FeatConv: 4, FeatFC: 2, FeatRC: 2, FeatMAC: 3,
		FeatCoCPU: 4, FeatCoMem: 4, FeatRSSIW: 2, FeatRSSIP: 2,
	}
	for f, n := range want {
		if got := s.Bins(f); got != n {
			t.Errorf("%s bins = %d, want %d", f, got, n)
		}
	}
	if s.Bins(Feature(-1)) != 0 || s.Bins(Feature(99)) != 0 {
		t.Error("out-of-range bins must be 0")
	}
}

// TestTableIInvariants pins the two facts the key codec and the neighbour
// search rest on: every feature's bin is one key digit, and no variance
// distance reaches nnWeight, so a row of the target's own NN group always
// beats every other group.
func TestTableIInvariants(t *testing.T) {
	span := 0
	for f := Feature(0); f < numFeatures; f++ {
		cuts := tableI[f]
		if len(cuts)+1 > 10 {
			t.Errorf("%s has %d bins; a key digit holds at most 10", f, len(cuts)+1)
		}
		for k := 1; k < len(cuts); k++ {
			if cuts[k] <= cuts[k-1] {
				t.Errorf("%s cuts %v are not strictly ascending", f, cuts)
			}
		}
		if int(f) >= nnFeatures {
			span += len(cuts)
		}
	}
	if span >= nnWeight {
		t.Errorf("variance span %d reaches nnWeight %d", span, nnWeight)
	}
}

// bin is monotone in the value on every feature.
func TestBinMonotoneProperty(t *testing.T) {
	for f := Feature(0); f < numFeatures; f++ {
		mono := func(a, b float64) bool {
			if a > b {
				a, b = b, a
			}
			return bin(f, a) <= bin(f, b)
		}
		if err := quick.Check(mono, nil); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// bin stays inside the feature's bins for every float, and NaN lands in
// the top bin.
func TestBinRangeProperty(t *testing.T) {
	for f := Feature(0); f < numFeatures; f++ {
		n := len(tableI[f]) + 1
		inRange := func(v float64) bool {
			b := bin(f, v)
			return b >= 0 && b < n
		}
		if err := quick.Check(inRange, nil); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		for _, v := range []float64{math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.MaxFloat64} {
			if !inRange(v) {
				t.Errorf("%s: bin(%v) = %d, outside [0, %d)", f, v, bin(f, v), n)
			}
		}
		if got := bin(f, math.NaN()); got != n-1 {
			t.Errorf("%s: bin(NaN) = %d, want the top bin %d", f, got, n-1)
		}
	}
}

// bin maps values below, on, between and above the cuts of one feature to
// the expected bins.
func TestBinCases(t *testing.T) {
	cases := []struct {
		f    Feature
		v    float64
		want int
	}{
		{FeatFC, -100, 0}, {FeatFC, 5, 0}, {FeatFC, 10, 1}, {FeatFC, 15, 1},
		{FeatConv, 29, 0}, {FeatConv, 30, 1}, {FeatConv, 49, 1}, {FeatConv, 50, 2},
		{FeatConv, 90, 3}, {FeatConv, 1000, 3},
		{FeatMAC, 0, 0}, {FeatMAC, 1500e6, 1}, {FeatMAC, 2000e6, 2},
		{FeatCoCPU, 0, 0}, {FeatCoCPU, 0.5, 1}, {FeatCoCPU, 100, 3},
		{FeatRSSIW, -80, 0}, {FeatRSSIW, -79.999, 1}, {FeatRSSIW, -40, 1},
	}
	for _, c := range cases {
		if got := bin(c.f, c.v); got != c.want {
			t.Errorf("bin(%s, %v) = %d, want %d", c.f, c.v, got, c.want)
		}
	}
}

// A value exactly on a cut belongs to the upper bin, and the float just
// below it to the lower one, on every cut of Table I.
func TestBinOnCutGoesUp(t *testing.T) {
	for f := Feature(0); f < numFeatures; f++ {
		for k, c := range tableI[f] {
			if got := bin(f, c); got != k+1 {
				t.Errorf("%s: bin(%v) = %d, want %d", f, c, got, k+1)
			}
			below := math.Nextafter(c, math.Inf(-1))
			if got := bin(f, below); got != k {
				t.Errorf("%s: bin(%v) = %d, want %d", f, below, got, k)
			}
		}
	}
}

// TestBinMatchesSearch referees bin's linear scan against the binary search
// it replaced — the first cut at or above the next float up from v — on
// every Table I cut and its neighbouring floats, the signed zeros, NaN, the
// infinities, the largest finite floats and 100k random floats: half raw
// bit patterns (every exponent, NaN payloads included), half spread over
// each feature's own range.
func TestBinMatchesSearch(t *testing.T) {
	search := func(f Feature, v float64) int {
		return sort.SearchFloat64s(tableI[f], math.Nextafter(v, math.Inf(1)))
	}
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for f := Feature(0); f < numFeatures; f++ {
		for _, c := range tableI[f] {
			special = append(special, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewSource(1))
	values := special
	for k := 0; k < 100_000; k++ {
		if k%2 == 0 {
			values = append(values, math.Float64frombits(rng.Uint64()))
			continue
		}
		cuts := tableI[Feature(k/2)%numFeatures]
		lo, hi := cuts[0], cuts[len(cuts)-1]
		span := max(hi-lo, math.Abs(hi), 1)
		values = append(values, lo-span+rng.Float64()*3*span)
	}
	for f := Feature(0); f < numFeatures; f++ {
		for _, v := range values {
			if got, want := bin(f, v), search(f, v); got != want {
				t.Fatalf("%s: bin(%v) = %d, binary search gives %d", f, v, got, want)
			}
		}
	}
}

func TestTableIBoundaries(t *testing.T) {
	s := NewStateSpace()
	// SCONV: small(<30) medium(<50) large(<90) larger(>=90).
	conv := func(n int) string {
		return strings.Split(string(s.Key(Observation{NumConv: n})), "|")[0]
	}
	if conv(29) != "0" || conv(30) != "1" || conv(49) != "1" || conv(50) != "2" ||
		conv(89) != "2" || conv(90) != "3" {
		t.Error("SCONV boundaries drifted from Table I")
	}
	// SMAC: small(<1000M) medium(<2000M) large(>=2000M).
	mac := func(m float64) string {
		return strings.Split(string(s.Key(Observation{MACs: m})), "|")[3]
	}
	if mac(999e6) != "0" || mac(1000e6) != "1" || mac(1999e6) != "1" || mac(2000e6) != "2" {
		t.Error("SMAC boundaries drifted from Table I")
	}
	// SCo_CPU: none(0) small(<25) medium(<75) large(<=100).
	cpu := func(u float64) string {
		return strings.Split(string(s.Key(Observation{CoCPU: u})), "|")[4]
	}
	if cpu(0) != "0" || cpu(10) != "1" || cpu(25) != "2" || cpu(74) != "2" || cpu(75) != "3" {
		t.Error("SCo_CPU boundaries drifted from Table I")
	}
	// RSSI: regular(>-80) weak(<=-80).
	rssi := func(v float64) string {
		return strings.Split(string(s.Key(Observation{RSSIW: v})), "|")[6]
	}
	if rssi(-79.9) != "1" || rssi(-80) != "0" || rssi(-90) != "0" {
		t.Error("SRSSI boundaries drifted from Table I")
	}
}

func TestObservationOf(t *testing.T) {
	m := dnn.MustByName("MobileNet v3")
	c := sim.Conditions{
		Load:     interfere.Load{CPUUtil: 0.5, MemUtil: 0.3},
		RSSIWLAN: -60, RSSIP2P: -85,
	}
	o := ObservationOf(m, c)
	if o.NumConv != 23 || o.NumFC != 20 || o.NumRC != 0 {
		t.Errorf("layer counts = %d/%d/%d", o.NumConv, o.NumFC, o.NumRC)
	}
	if o.CoCPU != 50 || o.CoMem != 30 {
		t.Errorf("co-runner percents = %v/%v", o.CoCPU, o.CoMem)
	}
	if o.RSSIW != -60 || o.RSSIP != -85 {
		t.Error("RSSI passthrough broken")
	}
	if o.MACs != m.MACs() {
		t.Error("MACs passthrough broken")
	}
}

func TestKeyDistinguishesModels(t *testing.T) {
	s := NewStateSpace()
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	keys := map[string]bool{}
	for _, m := range dnn.Zoo() {
		keys[string(s.Key(ObservationOf(m, c)))] = true
	}
	// Models with identical Table I bins may collide, but there must be
	// several distinct NN states.
	if len(keys) < 5 {
		t.Errorf("only %d distinct NN states across the zoo", len(keys))
	}
}

func TestDisable(t *testing.T) {
	s := NewStateSpace().Disable(FeatRSSIP)
	if s.Enabled(FeatRSSIP) {
		t.Error("feature still enabled")
	}
	if got := s.Size(); got != 3072/2 {
		t.Errorf("ablated size = %d, want 1536", got)
	}
	key := string(s.Key(Observation{}))
	parts := strings.Split(key, "|")
	if parts[FeatRSSIP] != "*" {
		t.Errorf("disabled feature renders as %q, want *", parts[FeatRSSIP])
	}
	// Different RSSIP values collapse to the same key.
	a := s.Key(Observation{RSSIP: -55})
	b := s.Key(Observation{RSSIP: -90})
	if a != b {
		t.Error("disabled feature still distinguishes states")
	}
}

func TestFeatureString(t *testing.T) {
	if FeatConv.String() != "SCONV" || FeatRSSIP.String() != "SRSSI_P" {
		t.Error("feature names drifted from Table I")
	}
	if Feature(99).String() == "" {
		t.Error("out-of-range stringer must not be empty")
	}
}

func TestKeyBinsInRangeProperty(t *testing.T) {
	s := NewStateSpace()
	f := func(conv, fc uint8, macs, cpu, mem, rw, rp float64) bool {
		o := Observation{
			NumConv: int(conv), NumFC: int(fc), MACs: macs,
			CoCPU: cpu, CoMem: mem, RSSIW: rw, RSSIP: rp,
		}
		parts := strings.Split(string(s.Key(o)), "|")
		return len(parts) == NumFeatures
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// binsOfKey is the key -> bins reading the neighbour scan relies on: Lookup to
// the dense index, BinsOf to the per-feature bins.
func binsOfKey(s *StateSpace, key rl.State) (bins [NumFeatures]int, ok bool) {
	i, ok := s.Lookup(key)
	return bins, ok && s.BinsOf(i, &bins)
}

func TestKeyBinsRoundTrip(t *testing.T) {
	s := NewStateSpace()
	key := s.Key(Observation{NumConv: 49, NumFC: 1, MACs: 1.43e9, RSSIW: -55, RSSIP: -55})
	bins, ok := binsOfKey(s, key)
	if !ok {
		t.Fatal("a generated key must look up")
	}
	if bins[FeatConv] != 1 || bins[FeatMAC] != 1 {
		t.Errorf("decoded bins = %v", bins)
	}
	if _, ok := binsOfKey(s, "bogus"); ok {
		t.Error("malformed key must not look up")
	}
	if _, ok := binsOfKey(s, "a|b|c|d|e|f|g|h"); ok {
		t.Error("non-numeric key must not look up")
	}
	// Disabled features decode as -1.
	abl := NewStateSpace().Disable(FeatConv)
	bins, ok = binsOfKey(abl, abl.Key(Observation{}))
	if !ok || bins[FeatConv] != -1 {
		t.Error("ablated key decode broken")
	}
}

func TestStateDistance(t *testing.T) {
	a := [NumFeatures]int{1, 0, 0, 1, 0, 0, 1, 1}
	b := a
	if stateDistance(a, b) != 0 {
		t.Error("identical states must have distance 0")
	}
	// An NN-feature mismatch must dominate a variance mismatch.
	nnDiff := a
	nnDiff[FeatConv] = 2
	varDiff := a
	varDiff[FeatCoCPU] = 3
	if stateDistance(a, nnDiff) <= stateDistance(a, varDiff) {
		t.Error("NN-feature mismatches must cost more than variance mismatches")
	}
	// Ablated features are ignored.
	abl := a
	abl[FeatConv] = -1
	if stateDistance(a, abl) != 0 {
		t.Error("ablated features must not contribute")
	}
}
