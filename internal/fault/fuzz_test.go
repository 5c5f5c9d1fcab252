package fault

import (
	"testing"

	"autoscale/internal/exec"
)

// FuzzScheduleParse hammers the JSON schedule parser: any input must either
// fail with an error or yield a schedule that validates and compiles
// without panicking. It runs in the `make fuzz` smoke.
func FuzzScheduleParse(f *testing.F) {
	f.Add([]byte(`{"name":"s","faults":[{"kind":"outage","site":"cloud","start_s":1,"end_s":2}]}`))
	f.Add([]byte(`{"faults":[{"kind":"outage","site":"connected","start_s":0,"end_s":50,"mean_up_s":2,"mean_down_s":1}]}`))
	f.Add([]byte(`{"faults":[{"kind":"rssi_ramp","link":"wlan","start_s":0,"end_s":9,"delta_dbm":-20}]}`))
	f.Add([]byte(`{"faults":[{"kind":"queue_spike","site":"cloud","start_s":0,"end_s":3,"extra_service_s":0.1}]}`))
	f.Add([]byte(`{"faults":[{"kind":"thermal","start_s":0,"end_s":1,"factor":2}]}`))
	f.Add([]byte(`{"faults":[{"kind":"worker_crash","device":"d","start_s":5}]}`))
	f.Add([]byte(`{"faults":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"faults":[{"kind":"outage","site":"cloud","start_s":1e308,"end_s":1.7e308}]}`))

	ctx := exec.NewRoot(42).Child("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// A parsed schedule must validate (Parse already did) and compile.
		inj := New(s, ctx)
		// Queries must not panic on arbitrary compiled timelines.
		for _, ts := range []float64{0, 1, 1e6} {
			inj.Down(SiteCloud, ts)
			inj.RSSIDeltaDBm(LinkWLAN, ts)
			inj.ExtraServiceS(SiteConnected, ts)
			inj.ThrottleFactor(ts)
			inj.Active(ts)
		}
	})
}
