package core

import (
	"strings"
	"testing"
	"testing/quick"

	"autoscale/internal/cluster"
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

func TestFitStateSpace(t *testing.T) {
	var samples []Observation
	// Two clear clusters per feature.
	for i := 0; i < 30; i++ {
		samples = append(samples,
			Observation{NumConv: 10 + i%3, NumFC: 1, NumRC: 0, MACs: 0.3e9 + float64(i%3)*1e7,
				CoCPU: 5, CoMem: 5, RSSIW: -55, RSSIP: -55},
			Observation{NumConv: 90 + i%3, NumFC: 20, NumRC: 24, MACs: 5e9 + float64(i%3)*1e7,
				CoCPU: 80, CoMem: 80, RSSIW: -90, RSSIP: -90})
	}
	s, err := FitStateSpace(samples)
	if err != nil {
		t.Fatal(err)
	}
	for f := Feature(0); int(f) < NumFeatures; f++ {
		if s.Bins(f) < 2 {
			t.Errorf("%s fitted only %d bins", f, s.Bins(f))
		}
	}
	// The fitted cuts must separate the two clusters.
	a := s.Key(samples[0])
	b := s.Key(samples[1])
	if a == b {
		t.Error("fitted space does not separate the clusters")
	}
	if _, err := FitStateSpace(nil); err == nil {
		t.Error("empty fit should fail")
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

func TestSlowKeyForManyBins(t *testing.T) {
	// A custom discretizer with more than ten bins exercises the slow key
	// path; generated keys must still look up.
	s := NewStateSpace()
	cuts := make([]float64, 12)
	for i := range cuts {
		cuts[i] = float64(i+1) * 10
	}
	s.disc[FeatConv] = cluster.NewDiscretizer(cuts)
	key := s.Key(Observation{NumConv: 125}) // bin 12
	if !strings.Contains(string(key), "12") {
		t.Errorf("slow key = %q, want bin 12", key)
	}
	bins, ok := binsOfKey(s, key)
	if !ok || bins[FeatConv] != 12 {
		t.Errorf("slow key decode = %v, %v", bins, ok)
	}
}
