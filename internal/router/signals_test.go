package router

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/serve"
	"autoscale/internal/soc"
)

// heldSink blocks the lane that delivers to it until release is closed.
type heldSink struct {
	held, release chan struct{}
	once          sync.Once
}

func (s *heldSink) Deliver(serve.Response) {
	s.once.Do(func() { close(s.held) })
	<-s.release
}

// TestShardSignalsMatchSnapshot checks that the supervisor reads the
// snapshot everyone else reads: after a worker-crash drill, with requests
// parked in a queue behind a held lane, the three inputs it scores from the
// embedded snapshot are nonzero and equal to Gateway.Snapshot's. The auditor's clock read must match the
// signals' lifecycle and clock fields.
func TestShardSignalsMatchSnapshot(t *testing.T) {
	const seed = 5
	inj := fault.New(&fault.Schedule{Name: "signals", Faults: []fault.Spec{
		{Kind: fault.KindWorkerCrash, Device: "lane-a1", StartS: 0.5},
	}}, exec.NewRoot(seed).Child("faults"))
	var backends []serve.Backend
	for i, lane := range []string{"lane-a0", "lane-a1"} {
		backends = append(backends, serve.Backend{Device: lane, Engine: testEngine(t, soc.Mi8Pro(), seed+int64(i), core.DefaultConfig())})
	}
	gw, err := serve.New(backends, serve.Config{
		Name:   "shard-a",
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck

	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 400; i++ {
		if r, err := rt.Do(serve.Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatalf("request %d: %v %+v", i, err, r)
		}
	}
	// Park lane-a0 in a delivery and queue two more requests behind it, so
	// the queue gauge reads nonzero while nothing moves.
	sink := &heldSink{held: make(chan struct{}), release: make(chan struct{})}
	if err := gw.SubmitTo(serve.Request{Model: m, Conditions: conds(), Device: "lane-a0"}, sink); err != nil {
		t.Fatal(err)
	}
	<-sink.held
	var queued []<-chan serve.Response
	for i := 0; i < 2; i++ {
		ch, err := gw.Submit(serve.Request{Model: m, Conditions: conds(), Device: "lane-a0"})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, ch)
	}

	sigs := rt.ShardSignals()
	snap := gw.Snapshot()
	clocks := rt.ShardClocks()
	close(sink.release)
	for _, ch := range queued {
		<-ch
	}
	if len(sigs) != 1 {
		t.Fatalf("%d shard signals, want 1", len(sigs))
	}
	sig := sigs[0]
	if !reflect.DeepEqual(clocks, []ShardClock{sig.ShardClock}) || sig.VirtualS == 0 {
		t.Errorf("clocks %+v, signals' clock %+v", clocks, sig.ShardClock)
	}
	if !reflect.DeepEqual(sig.Latency, snap.Latency) {
		t.Errorf("latency histogram: signals %+v, snapshot %+v", sig.Latency, snap.Latency)
	}
	if sig.WorkerCrashes != snap.WorkerCrashes || sig.QueueDepth != snap.QueueDepth {
		t.Errorf("signals crashes/queue %d/%d, snapshot %d/%d",
			sig.WorkerCrashes, sig.QueueDepth, snap.WorkerCrashes, snap.QueueDepth)
	}
	if sig.Latency.Count == 0 || sig.WorkerCrashes == 0 || sig.QueueDepth == 0 {
		t.Errorf("drill left a signal at zero: latency %d, crashes %d, queue %d",
			sig.Latency.Count, sig.WorkerCrashes, sig.QueueDepth)
	}
}
