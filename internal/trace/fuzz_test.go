package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadAll hammers the JSON Lines reader: whatever ReadAll accepts must
// survive a write-read cycle through Writer unchanged, and whatever it
// rejects must come back as an error, never a panic. It runs in the
// `make fuzz` smoke.
func FuzzReadAll(f *testing.F) {
	var lines []string
	for _, fx := range fixtures {
		lines = append(lines, fx.raw)
	}
	const v4 = `{"v":4,"seq":3,"model":"MobileNet v1","state":"0|0|0|0|0|0|1|1","target":"local/CPU@0/FP32","location":"local","latency_s":0.01,"energy_j":0.02,"reward":-10,"qos_violated":false,"outage":true,"retries":2,"hedged":true,"degraded":true,"wasted_j":0.004,"trace_id":42}`
	lines = append(lines, v4)
	for _, seed := range append(lines,
		strings.Join(lines, "\n")+"\n",
		`{"seq":9223372036854775807,"trace_id":18446744073709551615}`,
		`{"seq":1e30}`,
		`{"wasted_j":-0.5,"energy_j":-1e-300}`,
		`{"latency_s":1e308,"vwait_s":-1e308,"phases":{"execute":1e308}}`,
		`{"latency_s":1e309}`,
		`{"seq":0,"model":"MobileNet v1","sta`,
		fixtures[0].raw+"\n"+fixtures[0].raw+"\n",
		"{}{}",
		"",
	) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.AppendBatch(recs); err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(recs), err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("write-read cycle changed the records:\nread    %+v\nre-read %+v", recs, again)
		}
	})
}
