package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{Seq: 0, Model: "MobileNet v1", State: "0|0|0|0|0|0|1|1", Target: "local/DSP@0/INT8",
			Location: "local", LatencyS: 0.008, EnergyJ: 0.024, Reward: -19,
			Phases: map[string]float64{"execute": 0.008}},
		{Seq: 1, Model: "MobileBERT", Target: "cloud/GPU/FP32", Location: "cloud",
			LatencyS: 0.031, EnergyJ: 0.076, Reward: -60, QoSViolated: true},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 2 {
		t.Errorf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

// TestWriterConcurrent is the -race regression test for the gateway's shared
// audit trail: many workers appending to one Writer must not interleave
// records or lose counts.
func TestWriterConcurrent(t *testing.T) {
	const workers, each = 10, 200
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(Record{Seq: g*each + i, Model: "M", Location: "local",
					LatencyS: 0.01, EnergyJ: 0.02}); err != nil {
					t.Error(err)
					return
				}
				_ = w.Count()
			}
		}(g)
	}
	wg.Wait()
	if w.Count() != workers*each {
		t.Fatalf("count = %d, want %d", w.Count(), workers*each)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("concurrent appends corrupted the log: %v", err)
	}
	if len(recs) != workers*each {
		t.Fatalf("log has %d records, want %d", len(recs), workers*each)
	}
	seen := make(map[int]bool, len(recs))
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// TestRecordingPolicyConcurrent exercises the gateway's TracedPolicy path —
// one engine, one writer, many callers — under -race.
func TestRecordingPolicyConcurrent(t *testing.T) {
	e, err := core.NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p := &RecordingPolicy{Engine: e, Out: NewWriter(&buf)}
	m := dnn.MustByName("MobileNet v1")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := p.RunCtx(nil, m, c); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Out.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*each {
		t.Fatalf("trace has %d records, want %d", len(recs), workers*each)
	}
	seen := make(map[int]bool, len(recs))
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("{\"seq\":0}\nnot json\n")); err == nil {
		t.Error("garbage line should fail")
	}
	got, err := ReadAll(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Error("empty trace must read cleanly")
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Model: "A", Location: "local", LatencyS: 0.010, EnergyJ: 0.02},
		{Model: "A", Location: "cloud", LatencyS: 0.030, EnergyJ: 0.06, QoSViolated: true},
		{Model: "B", Location: "local", LatencyS: 0.020, EnergyJ: 0.04},
		{Model: "B", Location: "local", LatencyS: 0.020, EnergyJ: 0.04},
	}
	s := Summarize(recs)
	if s.Records != 4 {
		t.Errorf("records = %d", s.Records)
	}
	if s.ViolationRatio != 0.25 {
		t.Errorf("violations = %v", s.ViolationRatio)
	}
	if s.ByLocation["local"] != 0.75 || s.ByLocation["cloud"] != 0.25 {
		t.Errorf("location shares = %v", s.ByLocation)
	}
	if s.ByModel["A"] != 2 || s.ByModel["B"] != 2 {
		t.Errorf("model counts = %v", s.ByModel)
	}
	if s.TotalEnergyJ != 0.16 {
		t.Errorf("energy = %v", s.TotalEnergyJ)
	}
	if s.MeanLatencyS != 0.02 {
		t.Errorf("mean latency = %v", s.MeanLatencyS)
	}
	empty := Summarize(nil)
	if empty.Records != 0 || empty.ViolationRatio != 0 {
		t.Error("empty summary must be zero")
	}
}

func TestRecordingPolicy(t *testing.T) {
	e, err := core.NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p := &RecordingPolicy{Engine: e, Out: NewWriter(&buf)}
	if p.Name() != "AutoScale (traced)" {
		t.Error("name wrong")
	}
	m := dnn.MustByName("MobileNet v1")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	for i := 0; i < 25; i++ {
		if _, err := p.RunCtx(nil, m, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Out.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 {
		t.Fatalf("trace has %d records, want 25", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Model != m.Name || r.State == "" || r.Target == "" {
			t.Fatalf("record %d incomplete: %+v", i, r)
		}
		if r.EnergyJ <= 0 || r.LatencyS <= 0 {
			t.Fatalf("record %d lacks measurements", i)
		}
	}
	sum := Summarize(recs)
	if sum.ByModel[m.Name] != 25 {
		t.Error("summary model count wrong")
	}
}

// TestSchemaV1Compat pins the schema-versioning contract: records written
// before the v2 shard/tenant fields existed (no "v" key) must keep parsing
// and summarizing unchanged, while v2 records round-trip their attribution.
func TestSchemaV1Compat(t *testing.T) {
	v1 := `{"seq":0,"model":"MobileNet v1","state":"0|0|0|0|0|0|1|1","target":"local/CPU@0/FP32","location":"local","latency_s":0.02,"energy_j":0.05,"reward":-40,"qos_violated":false}
{"seq":1,"model":"MobileNet v1","state":"0|0|0|0|0|0|1|1","target":"cloud/GPU/FP32","location":"cloud","latency_s":0.09,"energy_j":0.02,"reward":-20,"qos_violated":true,"device":"Mi8Pro"}
`
	recs, err := ReadAll(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 trace no longer parses: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("v1 trace yields %d records", len(recs))
	}
	for i, r := range recs {
		if r.V != 0 {
			t.Errorf("record %d: v1 record reports schema %d", i, r.V)
		}
		if r.Shard != "" || r.Tenant != "" {
			t.Errorf("record %d: v1 record grew attribution %q/%q", i, r.Shard, r.Tenant)
		}
	}
	sum := Summarize(recs)
	if sum.Records != 2 || sum.ViolationRatio != 0.5 {
		t.Errorf("v1 summary drifted: %+v", sum)
	}

	// v2 records carry shard/tenant through a write-read cycle, and the
	// version stamp survives.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := Record{V: SchemaV, Seq: 0, Model: "MobileNet v1", Target: "local/CPU@0/FP32",
		Location: "local", LatencyS: 0.01, EnergyJ: 0.02, Reward: -10,
		Device: "lane-0", Shard: "shard-1", Tenant: "gold"}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].V != SchemaV || got[0].Shard != "shard-1" || got[0].Tenant != "gold" {
		t.Fatalf("v2 attribution lost in round trip: %+v", got)
	}
}

// fixtures are records as earlier writers wrote them: one per schema
// version v1-v3, a v4 record whose phases carry a "failover" leg, as the
// gateway's local failover recorded it before that path was removed, and a
// v4 record carrying the retired "degraded" and "retries" keys, as the
// gateway wrote them before circuit breakers and offload retries were
// removed, and a v4 record carrying the retired "hedged" key and "hedge"
// phase, as it wrote them before hedged offloads were removed. Readers must
// keep accepting every one of them.
var fixtures = []struct {
	name, raw string
	wantV     int
}{
	{"v1", `{"seq":0,"model":"MobileNet v1","state":"0|0|0|0|0|0|1|1","target":"local/CPU@0/FP32","location":"local","latency_s":0.02,"energy_j":0.05,"reward":-40,"qos_violated":false}`, 0},
	{"v2", `{"v":2,"seq":1,"model":"ResNet50 v1","state":"1|0|0|0|0|0|1|1","target":"edge/GPU/FP16","location":"edge","latency_s":0.04,"energy_j":0.03,"reward":-25,"qos_violated":false,"device":"lane-0","shard":"shard-1","tenant":"gold"}`, 2},
	{"v3", `{"v":3,"seq":2,"model":"Inception v4","state":"2|0|0|0|0|0|1|1","target":"cloud/GPU/FP32","location":"cloud","latency_s":0.08,"energy_j":0.02,"reward":-18,"qos_violated":true,"vwait_s":0.005,"phases":{"execute":0.08}}`, 3},
	{"v4_failover", `{"v":4,"seq":3,"model":"MobileNet v3","state":"0|1|0|0|0|0|1|1","target":"cloud/CPU/FP32","location":"local","latency_s":0.0811111111111111,"energy_j":0.09,"reward":-30,"qos_violated":true,"wasted_j":0.04,"phases":{"execute":0.0612345678901234,"failover":0.0198765432109877}}`, 4},
	{"v4_retired", retiredLine, 4},
	{"v4_hedged", hedgedLine, 4},
}

// retiredLine is a v4 record as the gateway wrote it while circuit breakers
// and offload retries existed: served with a breaker open after one retry,
// so it carries "degraded" and "retries".
const retiredLine = `{"v":4,"seq":4,"model":"MobileNet v3","state":"0|0|0|0|0|0|1|1","target":"local/CPU@22/FP32","location":"local","latency_s":0.031,"energy_j":0.05,"reward":-12,"qos_violated":false,"device":"Mi8Pro","outage":true,"retries":1,"degraded":true,"wasted_j":0.01,"phases":{"execute":0.025,"retry":0.006}}`

// hedgedLine is a v4 record as the gateway wrote it while hedged offloads
// existed: a remote answer raced by a local hedge leg that won, so it
// carries "hedged" and a "hedge" phase.
const hedgedLine = `{"v":4,"seq":5,"model":"MobileNet v3","state":"0|0|0|0|0|0|1|1","target":"local/CPU@22/FP32","location":"edge","latency_s":0.043,"energy_j":0.061,"reward":-48,"qos_violated":false,"device":"Mi8Pro","shard":"shard-0","tenant":"gold","hedged":true,"wasted_j":0.012,"vwait_s":0.002,"phases":{"execute":0.025,"hedge":0.018}}`

// TestDegradedKeyIsIgnored: a v4 line carrying a retired key — "degraded"
// from circuit breakers, "retries" from offload retries, "hedged" from
// hedged offloads — still reads, and reads and summarizes exactly like the
// same line without that key.
func TestDegradedKeyIsIgnored(t *testing.T) {
	for _, tc := range []struct{ key, line, field string }{
		{"degraded", retiredLine, `"degraded":true,`},
		{"retries", retiredLine, `"retries":1,`},
		{"hedged", hedgedLine, `"hedged":true,`},
	} {
		t.Run(tc.key, func(t *testing.T) {
			without := strings.Replace(tc.line, tc.field, "", 1)
			if without == tc.line {
				t.Fatalf("fixture lost its %s key", tc.key)
			}
			got, err := ReadAll(strings.NewReader(tc.line + "\n"))
			if err != nil {
				t.Fatalf("line with %s no longer reads: %v", tc.key, err)
			}
			want, err := ReadAll(strings.NewReader(without + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s key changed the record:\n %+v\nvs %+v", tc.key, got, want)
			}
			if gs, ws := Summarize(got), Summarize(want); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%s key changed the summary:\n %+v\nvs %+v", tc.key, gs, ws)
			}
		})
	}
}

// TestHedgedRecordRoundTrips: a v4 record carrying the retired "hedged"
// key reads with every other field intact, its retired "hedge" phase
// included, and writes back to a record that reads the same.
func TestHedgedRecordRoundTrips(t *testing.T) {
	want := Record{V: 4, Seq: 5, Model: "MobileNet v3", State: "0|0|0|0|0|0|1|1",
		Target: "local/CPU@22/FP32", Location: "edge", LatencyS: 0.043, EnergyJ: 0.061,
		Reward: -48, Device: "Mi8Pro", Shard: "shard-0", Tenant: "gold", WastedJ: 0.012,
		VWaitS: 0.002, Phases: map[string]float64{"execute": 0.025, "hedge": 0.018}}
	got, err := ReadAll(strings.NewReader(hedgedLine + "\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("hedged line: %d records, %v", len(got), err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("read:\n %+v\nwant %+v", got[0], want)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendBatch(got); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "hedged") {
		t.Fatalf("write kept the retired key: %s", buf.String())
	}
	again, err := ReadAll(&buf)
	if err != nil || len(again) != 1 || !reflect.DeepEqual(again[0], want) {
		t.Fatalf("write-read: %+v, %v", again, err)
	}
}

// failoverLegS is the v4_failover fixture's "failover" phase, as parsed.
const failoverLegS = 0.0198765432109877

// TestSchemaV4Compat pins the v4 contract: the fixtures keep parsing
// unchanged with TraceID zero, a v4 record's retired "failover" phase
// survives a read and a write bit for bit, and a v4 record round-trips its
// trace link.
func TestSchemaV4Compat(t *testing.T) {
	for _, fx := range fixtures {
		recs, err := ReadAll(strings.NewReader(fx.raw + "\n"))
		if err != nil {
			t.Fatalf("%s fixture no longer parses: %v", fx.name, err)
		}
		if len(recs) != 1 {
			t.Fatalf("%s fixture yields %d records", fx.name, len(recs))
		}
		r := recs[0]
		if r.V != fx.wantV {
			t.Errorf("%s fixture reports schema %d, want %d", fx.name, r.V, fx.wantV)
		}
		if r.TraceID != 0 {
			t.Errorf("%s fixture grew a trace link %d", fx.name, r.TraceID)
		}
	}
	// The v3 fixture's deterministic extras must survive untouched.
	recs, _ := ReadAll(strings.NewReader(fixtures[2].raw + "\n"))
	if recs[0].VWaitS != 0.005 || recs[0].Phases["execute"] != 0.08 {
		t.Fatalf("v3 fields drifted: %+v", recs[0])
	}
	recs, _ = ReadAll(strings.NewReader(fixtures[3].raw + "\n"))
	var fo bytes.Buffer
	fw := NewWriter(&fo)
	if err := fw.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	again, err := ReadAll(&fo)
	if err != nil || len(again) != 1 {
		t.Fatalf("v4_failover write-read: %d records, %v", len(again), err)
	}
	for stage, r := range map[string]Record{"read": recs[0], "write-read": again[0]} {
		if got := r.Phases["failover"]; math.Float64bits(got) != math.Float64bits(failoverLegS) {
			t.Fatalf("%s: failover phase %v, want %v (phases %v)", stage, got, failoverLegS, r.Phases)
		}
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := Record{V: SchemaV, Seq: 3, Model: "MobileNet v1", Target: "local/CPU@0/FP32",
		Location: "local", LatencyS: 0.01, EnergyJ: 0.02, Reward: -10, TraceID: 42}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].V != 4 || got[0].TraceID != 42 {
		t.Fatalf("v4 trace link lost in round trip: %+v", got)
	}
}
