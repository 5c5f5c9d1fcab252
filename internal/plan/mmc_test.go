package plan

import (
	"math"
	"testing"

	"autoscale/internal/exec"
)

func TestErlangKnownValues(t *testing.T) {
	// Erlang-B single server: B(1, a) = a/(1+a).
	for _, a := range []float64{0.1, 0.5, 1, 2, 5} {
		want := a / (1 + a)
		if got := ErlangB(1, a); math.Abs(got-want) > 1e-12 {
			t.Errorf("ErlangB(1, %g) = %g, want %g", a, got, want)
		}
	}
	// Erlang-C single server is the M/M/1 wait probability: C(1, rho) = rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); math.Abs(got-rho) > 1e-12 {
			t.Errorf("ErlangC(1, %g) = %g, want %g", rho, got, rho)
		}
	}
	// Textbook value: C(4, 3) for lambda=3, mu=1, c=4.
	if got := ErlangC(4, 3); math.Abs(got-0.509434) > 1e-3 {
		t.Errorf("ErlangC(4, 3) = %g, want ~0.5094", got)
	}
	// Degenerate and unstable systems saturate at 1.
	for _, got := range []float64{ErlangC(0, 1), ErlangC(4, 4), ErlangC(4, 9), ErlangB(0, 1)} {
		if got != 1 {
			t.Errorf("degenerate Erlang value = %g, want 1", got)
		}
	}
}

func TestMMCWaitLaw(t *testing.T) {
	m := MMC{LambdaHz: 3, MuHz: 1, Servers: 4}
	if !m.Stable() {
		t.Fatal("lambda=3 mu=1 c=4 must be stable")
	}
	if got, want := m.Occupancy(), 0.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("occupancy = %g, want %g", got, want)
	}
	// Wq = C/(c*mu - lambda) = C/1.
	if got, want := m.MeanWaitS(), m.WaitProbability(); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean wait = %g, want %g", got, want)
	}
	// Unstable system: infinite waits.
	bad := MMC{LambdaHz: 5, MuHz: 1, Servers: 4}
	if !math.IsInf(bad.MeanWaitS(), 1) {
		t.Error("unstable system must report an infinite wait")
	}
}

func TestRequiredServers(t *testing.T) {
	// Stability alone: lambda=3, mu=1 needs 4 servers.
	if got := RequiredServers(3, 1, 0, 16); got != 4 {
		t.Errorf("RequiredServers(3, 1, stability) = %d, want 4", got)
	}
	// A tight wait target needs more than bare stability.
	loose := RequiredServers(3, 1, 1.0, 16)
	tight := RequiredServers(3, 1, 0.01, 16)
	if tight <= loose {
		t.Errorf("tight target %d servers <= loose target %d", tight, loose)
	}
	// The cap wins when even maxServers cannot meet the target.
	if got := RequiredServers(30, 1, 0.001, 8); got != 8 {
		t.Errorf("capped RequiredServers = %d, want 8", got)
	}
	if got := RequiredServers(0, 1, 0.1, 8); got != 1 {
		t.Errorf("no-load RequiredServers = %d, want 1", got)
	}
}

// TestMMCCalibration is the model-accuracy acceptance gate: an event-driven
// M/M/c simulation (Poisson arrivals, exponential service, c FIFO servers,
// fixed seed) must land within 15% of the Erlang-C model on both occupancy
// and mean wait.
func TestMMCCalibration(t *testing.T) {
	const (
		lambda = 3.0
		mu     = 1.0
		c      = 4
		n      = 20000
	)
	rng := exec.NewRand(1887)
	free := make([]float64, c) // next-free time per server
	arrival := 0.0
	var busySum, waitSum, lastDone float64
	for i := 0; i < n; i++ {
		arrival += rng.ExpFloat64() / lambda
		// Earliest-free server takes the head of the FIFO queue.
		srv := 0
		for j := 1; j < c; j++ {
			if free[j] < free[srv] {
				srv = j
			}
		}
		start := arrival
		if free[srv] > start {
			start = free[srv]
		}
		waitSum += start - arrival
		svc := rng.ExpFloat64() / mu
		busySum += svc
		free[srv] = start + svc
		if free[srv] > lastDone {
			lastDone = free[srv]
		}
	}
	m := MMC{LambdaHz: lambda, MuHz: mu, Servers: c}

	measuredOcc := busySum / (float64(c) * lastDone)
	if gap := math.Abs(m.Occupancy()-measuredOcc) / measuredOcc; gap > 0.15 {
		t.Errorf("predicted occupancy %.4f vs measured %.4f: %.1f%% off (budget 15%%)",
			m.Occupancy(), measuredOcc, gap*100)
	}
	measuredWait := waitSum / n
	if gap := math.Abs(m.MeanWaitS()-measuredWait) / measuredWait; gap > 0.15 {
		t.Errorf("predicted mean wait %.4fs vs measured %.4fs: %.1f%% off (budget 15%%)",
			m.MeanWaitS(), measuredWait, gap*100)
	}
}
