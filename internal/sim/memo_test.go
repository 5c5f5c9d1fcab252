package sim

import (
	"sync"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/fault"
	"autoscale/internal/interfere"
	"autoscale/internal/soc"
)

// optQuery is one question to the Opt oracle.
type optQuery struct {
	m        *dnn.Model
	c        Conditions
	qos, acc float64
}

type optAnswer struct {
	t    Target
	meas Measurement
}

func askOpt(t *testing.T, w *World, q optQuery) optAnswer {
	t.Helper()
	tgt, meas, err := w.BestTarget(q.m, q.c, q.qos, q.acc)
	if err != nil {
		t.Fatal(err)
	}
	return optAnswer{tgt, meas}
}

// TestBestTargetMemoFollowsQuestion: after BestTarget has answered (and
// memoised) a question, changing any one part of the question — the
// conditions, either constraint, a radio link mutated in place, a service
// overhead, the platform idle power or a replaced system — yields the answer
// a fresh world gives. Every case is chosen so the answer moves, so a stale
// memo hit cannot pass.
func TestBestTargetMemoFollowsQuestion(t *testing.T) {
	weakP2P := Conditions{RSSIWLAN: -55, RSSIP2P: -90}
	resnetOnMoto := optQuery{m: dnn.MustByName("ResNet 50"), c: weakP2P, qos: 0.1}           // Opt offloads to the cloud
	inceptionOnMi8 := optQuery{m: dnn.MustByName("Inception v1"), c: strongCond(), qos: 0.1} // Opt runs INT8 on the DSP
	cases := []struct {
		name   string
		dev    func() *soc.Device
		q      optQuery
		change func(w *World, q *optQuery)
	}{
		{"conditions", soc.MotoXForce, resnetOnMoto, func(_ *World, q *optQuery) {
			q.c = Conditions{RSSIWLAN: -55, RSSIP2P: -55, Load: interfere.Load{CPUUtil: 0.3}}
		}},
		{"qos", soc.Mi8Pro, optQuery{m: dnn.MustByName("MobileNet v3"), c: strongCond(), qos: 0.1},
			func(_ *World, q *optQuery) { q.qos = 0.005 }},
		{"accuracy", soc.Mi8Pro, inceptionOnMi8, func(_ *World, q *optQuery) { q.acc = 65 }},
		{"wifi_rate_in_place", soc.MotoXForce, resnetOnMoto, func(w *World, _ *optQuery) { w.WiFi.BaseRateMBps /= 2 }},
		{"cloud_service", soc.MotoXForce, resnetOnMoto, func(w *World, _ *optQuery) { w.CloudServiceS = 0.02 }},
		{"idle_power_in_place", soc.MotoXForce, resnetOnMoto, func(w *World, _ *optQuery) { w.Device.PlatformIdleW *= 3 }},
		{"replaced_server", soc.MotoXForce, resnetOnMoto, func(w *World, _ *optQuery) { w.Server = soc.CloudServerTPU() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(tc.dev(), 1)
			before := askOpt(t, w, tc.q)
			if again := askOpt(t, w, tc.q); again != before {
				t.Fatalf("repeated question: %+v, first answer %+v", again, before)
			}
			q := tc.q
			tc.change(w, &q)
			fresh := NewWorld(tc.dev(), 1)
			freshQ := tc.q
			tc.change(fresh, &freshQ)
			want := askOpt(t, fresh, freshQ)
			if want == before {
				t.Fatalf("the change leaves the answer at %v; the case cannot catch a stale memo", before.t)
			}
			if got := askOpt(t, w, q); got != want {
				t.Errorf("after the change: %v (%.6g J), fresh world %v (%.6g J)", got.t, got.meas.EnergyJ, want.t, want.meas.EnergyJ)
			}
		})
	}
}

// TestBestTargetAtBypassesMemo: the fault-aware oracle inside an outage
// window avoids the down site even right after BestTarget memoised an
// answer on it, and leaves that memo as it was.
func TestBestTargetAtBypassesMemo(t *testing.T) {
	sched := &fault.Schedule{Faults: []fault.Spec{{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 0, EndS: 5}}}
	w := faultWorld(13, sched)
	q := optQuery{m: dnn.MustByName("MobileBERT"), c: strongCond(), qos: 1}
	blind := askOpt(t, w, q)
	if blind.t.Location != Cloud {
		t.Fatalf("unfaulted Opt chose %v; the case needs a cloud answer", blind.t)
	}
	got, gotMeas, err := w.BestTargetAt(2, q.m, q.c, q.qos, q.acc)
	if err != nil {
		t.Fatal(err)
	}
	want, wantMeas, err := faultWorld(13, sched).BestTargetAt(2, q.m, q.c, q.qos, q.acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Location == Cloud || got != want || gotMeas != wantMeas {
		t.Errorf("inside the outage BestTargetAt = %v, fresh world %v", got, want)
	}
	if again := askOpt(t, w, q); again != blind {
		t.Errorf("BestTarget after BestTargetAt = %v, want %v", again.t, blind.t)
	}
}

// TestBestTargetMemoConcurrent races goroutines alternating two questions
// on one world, so every call can replace the entry another goroutine is
// reading; run under -race it shows the memo's pointer swap is safe, and
// every answer must still match a world that was never raced.
func TestBestTargetMemoConcurrent(t *testing.T) {
	qs := []optQuery{
		{m: dnn.MustByName("ResNet 50"), c: strongCond(), qos: 0.1},
		{m: dnn.MustByName("ResNet 50"), c: Conditions{RSSIWLAN: -55, RSSIP2P: -90}, qos: 0.1},
	}
	ref := NewWorld(soc.MotoXForce(), 1)
	want := []optAnswer{askOpt(t, ref, qs[0]), askOpt(t, ref, qs[1])}
	if want[0] == want[1] {
		t.Fatal("the two questions share an answer; a mixed-up hit would pass")
	}
	w := NewWorld(soc.MotoXForce(), 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + g) % 2
				tgt, meas, err := w.BestTarget(qs[k].m, qs[k].c, qs[k].qos, qs[k].acc)
				if err != nil || (optAnswer{tgt, meas}) != want[k] {
					t.Errorf("goroutine %d call %d: %v, %v; want %v", g, i, tgt, err, want[k].t)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBestTarget prices the oracle on a repeated question (the memo
// hit) and on two alternating questions (every call a full search).
func BenchmarkBestTarget(b *testing.B) {
	m := dnn.MustByName("ResNet 50")
	conds := []Conditions{strongCond(), {RSSIWLAN: -55, RSSIP2P: -90}}
	for _, bc := range []struct {
		name string
		n    int // questions cycled through
	}{{"repeat", 1}, {"miss", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			w := NewWorld(soc.Mi8Pro(), 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.BestTarget(m, conds[i%bc.n], 0.1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
