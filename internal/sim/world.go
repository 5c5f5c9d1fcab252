// Package sim assembles the substrates into the paper's edge–cloud execution
// world: a mobile device, a locally connected tablet reachable over Wi-Fi
// Direct, and a cloud server reachable over Wi-Fi — and executes inferences
// on any feasible target, producing latency/energy/accuracy measurements.
// It also defines the Table IV static and dynamic environments and the
// application scenarios (non-streaming, streaming, translation).
package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/interfere"
	"autoscale/internal/perf"
	"autoscale/internal/power"
	"autoscale/internal/radio"
	"autoscale/internal/soc"
)

// Location says where an inference executes.
type Location int

// Execution locations (Section IV-A actions).
const (
	// Local runs on the mobile device itself.
	Local Location = iota
	// Connected runs on the locally connected edge device (tablet) over
	// Wi-Fi Direct.
	Connected
	// Cloud runs on the server over Wi-Fi.
	Cloud
)

// String returns the location name.
func (l Location) String() string {
	switch l {
	case Local:
		return "local"
	case Connected:
		return "connected"
	case Cloud:
		return "cloud"
	}
	return fmt.Sprintf("Location(%d)", int(l))
}

// Target is one fully specified execution action: where, on which engine, at
// which DVFS step (local only; remote systems run their engines at the top
// step) and precision. This is exactly the action space of Section V-C.
type Target struct {
	Location Location
	Kind     soc.Kind
	// Step is the local DVFS step; ignored for Connected/Cloud.
	Step int
	Prec dnn.Precision
}

// String renders the target compactly, e.g. "local/CPU@17/INT8".
func (t Target) String() string {
	if t.Location == Local {
		return fmt.Sprintf("%s/%s@%d/%s", t.Location, t.Kind, t.Step, t.Prec)
	}
	return fmt.Sprintf("%s/%s/%s", t.Location, t.Kind, t.Prec)
}

// SameEngine reports whether u runs where t does, on the same engine kind at
// the same precision; the DVFS step is ignored.
func (t Target) SameEngine(u Target) bool {
	return t.Location == u.Location && t.Kind == u.Kind && t.Prec == u.Prec
}

// Conditions captures the stochastic runtime variance at one inference: the
// co-runner load on the local device and the two radio signal strengths.
type Conditions struct {
	Load     interfere.Load
	RSSIWLAN float64
	RSSIP2P  float64
}

// Measurement is the observed outcome of one inference.
type Measurement struct {
	Target   Target
	LatencyS float64
	EnergyJ  float64
	// Breakdown itemizes the mobile-side energy.
	Breakdown power.Breakdown
	// Accuracy is the inference accuracy (percent) delivered by the
	// target's precision.
	Accuracy float64
	// TTXSeconds/TRXSeconds are the transfer times (zero when local).
	TTXSeconds float64
	TRXSeconds float64
	// WastedJ is the energy burned on a failed offload attempt before the
	// local fallback ran (zero on clean executions). It is already included
	// in EnergyJ; the field exists so accounting can attribute it.
	WastedJ float64
}

// PPW returns the performance-per-watt figure of merit the paper optimizes:
// inferences per joule (1/latency divided by average power = 1/energy).
func (m Measurement) PPW() float64 {
	if m.EnergyJ <= 0 {
		return 0
	}
	return 1 / m.EnergyJ
}

// World is the full edge–cloud system around one mobile device.
type World struct {
	Device *soc.Device
	Tablet *soc.Device
	Server *soc.Device
	WiFi   *radio.Link
	P2P    *radio.Link

	// CloudServiceS / TabletServiceS are remote-side service overheads
	// (request handling, queueing) added to remote compute time.
	CloudServiceS  float64
	TabletServiceS float64

	// NoiseFrac is the relative sigma of multiplicative measurement noise
	// applied by Execute; Expected applies none.
	NoiseFrac float64

	// OutageProb is the per-request probability that an offload attempt
	// fails (AP handoff, server hiccup, link drop). On an outage the
	// runtime waits out OutageTimeoutS with the radio up, then falls back
	// to the local CPU at top frequency. This Bernoulli coin flip is the
	// original robustness extension, kept as a compatibility shim; the
	// scripted, time-correlated fault model lives in Faults. Zero (the
	// default) disables it. Expected is always outage-free: the oracle
	// plans on averages.
	OutageProb     float64
	OutageTimeoutS float64

	// Faults is an optional scripted fault injector (outage windows, RSSI
	// ramps, queue spikes, thermal throttles) evaluated against each
	// request context's virtual clock. Nil disables scripted faults; the
	// injector itself is immutable and safe to share across worlds.
	Faults *fault.Injector

	// root is the world's execution context; nil-ctx ExecuteCtx calls derive
	// a per-request child from it using seq, so each request's draws come
	// from its own named stream regardless of goroutine interleaving.
	root *exec.Context
	seq  atomic.Uint64

	// plans is the world's per-model derived state (see planTable): a
	// copy-on-write table read lock-free on every Expected; plansMu
	// serialises inserts only.
	plans   atomic.Pointer[planTable]
	plansMu sync.Mutex
}

// planTable maps each model the world has executed to its modelPlans. A
// published table is never modified: inserting a model republishes a copy.
// The three systems record which hardware the entries were built for, so a
// world whose Device, Tablet or Server was replaced after use starts over
// instead of answering from stale plans.
type planTable struct {
	device, tablet, server *soc.Device
	models                 map[*dnn.Model]*modelPlans
}

// modelPlans is what the world derives once per model: the feasible target
// list BestTarget sweeps, one enginePlan per (location, engine, supported
// precision) that can run the model, and the last unfaulted BestTarget
// answer.
type modelPlans struct {
	targets []Target
	engines []enginePlan
	best    atomic.Pointer[bestAnswer]
}

// bestAnswer is one successful unfaulted BestTarget answer and the question
// it answers. Entries are immutable once published; a new question replaces
// the pointer.
type bestAnswer struct {
	q    bestQuestion
	t    Target
	meas Measurement
}

// bestQuestion is everything an unfaulted BestTarget answer depends on
// besides the model and the three systems, which the plan table already pins
// by identity: the conditions, both constraints, the two radio links by value
// and the overheads and idle power Expected reads. Compared with ==.
type bestQuestion struct {
	c               Conditions
	qosS, accTarget float64
	wifi, p2p       radio.Link
	cloudS, tabletS float64
	idleW           float64
}

// enginePlan is the latency model of one placement of one model. A local
// placement holds the compiled roofline (perf.Plan) and memoises its
// co-runner-free result per DVFS step. A remote engine always runs at its
// top step with no co-runner, so it keeps only that one scalar, computed by
// the reference layer walk, and never compiles a plan. Memo slots hold
// float64 bits, 0 meaning "not computed yet"; racing first uses store the
// same bits.
type enginePlan struct {
	loc  Location
	proc *soc.Processor
	prec dnn.Precision
	plan *perf.Plan
	idle []atomic.Uint64
}

// idlePen is the penalty set of a device with no co-runner.
var idlePen = perf.NoInterference()

// modelLatency returns perf.ModelLatency of m on e at location loc, which
// must be feasible. Only local placements are ever loaded; remote callers
// pass their top step and idlePen.
func (w *World) modelLatency(loc Location, e perf.Exec, m *dnn.Model, pen interfere.Penalties) float64 {
	ep := w.plansFor(m).engine(loc, e.Proc, e.Prec)
	slot := &ep.idle[0]
	if ep.plan != nil {
		if pen != idlePen {
			return ep.plan.Latency(e.Step, pen)
		}
		slot = &ep.idle[e.Step]
	}
	if bits := slot.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	var v float64
	if ep.plan != nil {
		v = ep.plan.Latency(e.Step, idlePen)
	} else {
		v = perf.ModelLatency(e, m, idlePen)
	}
	slot.Store(math.Float64bits(v))
	return v
}

// engine returns the placement of (loc, proc, prec), or nil when that engine
// cannot run the model at that precision.
func (mp *modelPlans) engine(loc Location, proc *soc.Processor, prec dnn.Precision) *enginePlan {
	for i := range mp.engines {
		if ep := &mp.engines[i]; ep.proc == proc && ep.prec == prec && ep.loc == loc {
			return ep
		}
	}
	return nil
}

// current reports whether t was built for w's present systems.
func (t *planTable) current(w *World) bool {
	return t != nil && t.device == w.Device && t.tablet == w.Tablet && t.server == w.Server
}

// plansFor returns m's entry of the plan table, building and publishing it
// on first use. The hit path takes no lock.
func (w *World) plansFor(m *dnn.Model) *modelPlans {
	if t := w.plans.Load(); t.current(w) {
		if mp := t.models[m]; mp != nil {
			return mp
		}
	}
	w.plansMu.Lock()
	defer w.plansMu.Unlock()
	old := w.plans.Load()
	if !old.current(w) {
		old = &planTable{device: w.Device, tablet: w.Tablet, server: w.Server}
	}
	if mp := old.models[m]; mp != nil {
		return mp // lost the insert race; keep the published entry
	}
	mp := &modelPlans{targets: w.Targets(m)}
	for _, other := range old.models {
		if slices.Equal(other.targets, mp.targets) {
			mp.targets = other.targets // models that admit the same actions share one list
			break
		}
	}
	for _, loc := range []Location{Local, Connected, Cloud} {
		for _, p := range w.systemAt(loc).Processors {
			for _, prec := range p.Precisions {
				if !p.CanRun(m, prec) {
					continue
				}
				ep := enginePlan{loc: loc, proc: p, prec: prec}
				if loc == Local {
					ep.plan = perf.Compile(perf.Exec{Proc: p, Prec: prec}, m)
					ep.idle = make([]atomic.Uint64, p.Steps)
				} else {
					ep.idle = make([]atomic.Uint64, 1)
				}
				mp.engines = append(mp.engines, ep)
			}
		}
	}
	next := *old
	next.models = make(map[*dnn.Model]*modelPlans, len(old.models)+1)
	for k, v := range old.models {
		next.models[k] = v
	}
	next.models[m] = mp
	w.plans.Store(&next)
	return mp
}

// NewWorld builds the standard evaluation world around the given phone, with
// the Galaxy Tab S6 as the connected edge and the Xeon+P100 server as the
// cloud, using the given seed for measurement noise.
func NewWorld(device *soc.Device, seed int64) *World {
	return &World{
		Device:         device,
		Tablet:         soc.GalaxyTabS6(),
		Server:         soc.CloudServer(),
		WiFi:           radio.WiFi(),
		P2P:            radio.WiFiDirect(),
		CloudServiceS:  0.005,
		TabletServiceS: 0.003,
		NoiseFrac:      0.025,
		OutageTimeoutS: 0.200,
		root:           exec.NewRoot(seed).Child("world"),
	}
}

// systemAt returns the device serving a location.
func (w *World) systemAt(loc Location) *soc.Device {
	switch loc {
	case Connected:
		return w.Tablet
	case Cloud:
		return w.Server
	default:
		return w.Device
	}
}

// linkTo returns the radio link used to reach a remote location (nil for
// Local).
func (w *World) linkTo(loc Location) *radio.Link {
	switch loc {
	case Connected:
		return w.P2P
	case Cloud:
		return w.WiFi
	default:
		return nil
	}
}

// rssiFor picks the relevant signal strength from the conditions.
func (c Conditions) rssiFor(loc Location) float64 {
	if loc == Cloud {
		return c.RSSIWLAN
	}
	return c.RSSIP2P
}

// serviceOverhead returns the remote-side service overhead for a location.
func (w *World) serviceOverhead(loc Location) float64 {
	switch loc {
	case Cloud:
		return w.CloudServiceS
	case Connected:
		return w.TabletServiceS
	default:
		return 0
	}
}

// Feasible reports whether target t can execute model m in this world.
func (w *World) Feasible(m *dnn.Model, t Target) bool {
	sys := w.systemAt(t.Location)
	p := sys.Processor(t.Kind)
	if p == nil {
		return false
	}
	if t.Location == Local {
		if t.Step < 0 || t.Step >= p.Steps {
			return false
		}
	}
	return p.CanRun(m, t.Prec)
}

// Targets enumerates every feasible action for model m: each local engine at
// each DVFS step and supported precision, plus the remote engines at their
// supported precisions (FP32 for cloud per Section V-C; the connected DSP is
// INT8). This is the ~66-action augmented space of the paper.
func (w *World) Targets(m *dnn.Model) []Target {
	var out []Target
	for _, p := range w.Device.Processors {
		for _, prec := range p.Precisions {
			if !p.CanRun(m, prec) {
				continue
			}
			for step := 0; step < p.Steps; step++ {
				out = append(out, Target{Location: Local, Kind: p.Kind, Step: step, Prec: prec})
			}
		}
	}
	for _, loc := range []Location{Connected, Cloud} {
		sys := w.systemAt(loc)
		for _, p := range sys.Processors {
			prec := remotePrecision(loc, p)
			if !p.CanRun(m, prec) {
				continue
			}
			out = append(out, Target{Location: loc, Kind: p.Kind, Prec: prec})
		}
	}
	return out
}

// remotePrecision picks the precision used on a remote engine: FP32
// everywhere the paper uses it (cloud CPU/GPU/TPU, connected CPU/GPU), INT8
// on the fixed-function edge accelerators (DSP, NPU).
func remotePrecision(loc Location, p *soc.Processor) dnn.Precision {
	if p.Kind == soc.DSP || p.Kind == soc.NPU {
		return dnn.INT8
	}
	return dnn.FP32
}

// Expected computes the noise-free outcome of executing m on t under c.
// This is what the Opt oracle exhaustively enumerates.
func (w *World) Expected(m *dnn.Model, t Target, c Conditions) (Measurement, error) {
	if !w.Feasible(m, t) {
		return Measurement{}, fmt.Errorf("sim: target %v cannot run %s", t, m.Name)
	}
	sys := w.systemAt(t.Location)
	proc := sys.Processor(t.Kind)

	meas := Measurement{Target: t, Accuracy: m.Accuracy(t.Prec)}

	if t.Location == Local {
		pen := interfere.PenaltiesFor(c.Load)
		lat := w.modelLatency(Local, perf.Exec{Proc: proc, Step: t.Step, Prec: t.Prec}, m, pen)
		bd, err := power.OnDevice(proc, t.Step, lat, w.Device.PlatformIdleW)
		if err != nil {
			return Measurement{}, err
		}
		meas.LatencyS = lat
		meas.Breakdown = bd
		meas.EnergyJ = bd.Total()
		return meas, nil
	}

	// Remote execution: transfer input, compute at the remote top step
	// with no interference, transfer output back (eq 4 energy model).
	link := w.linkTo(t.Location)
	rssi := c.rssiFor(t.Location)
	tTX := link.TransferSeconds(m.InputBytes, rssi)
	tRX := link.TransferSeconds(m.OutputBytes, rssi)
	remote := w.modelLatency(t.Location, perf.Exec{Proc: proc, Step: proc.Steps - 1, Prec: t.Prec}, m, idlePen)
	total := tTX + remote + w.serviceOverhead(t.Location) + tRX

	bd, err := power.Offload(link, rssi, tTX, tRX, total, w.Device.PlatformIdleW)
	if err != nil {
		return Measurement{}, err
	}
	meas.LatencyS = total
	meas.TTXSeconds = tTX
	meas.TRXSeconds = tRX
	meas.Breakdown = bd
	meas.EnergyJ = bd.Total()
	return meas, nil
}

// ExecuteCtx runs one inference with multiplicative measurement noise on
// latency (and correspondingly on energy), modelling run-to-run variance of
// a real system. When OutageProb is set, offload attempts may fail and fall
// back to local CPU execution after the outage timeout.
//
// The outage and noise draws come from ctx's "sim.request" stream, making
// the measurement a pure function of (context identity, model, target,
// conditions). A nil ctx derives a fresh request context from the world's
// root using an atomic sequence number, so concurrent callers are
// race-free, and a fixed call order reproduces a fixed draw sequence;
// callers that need draws independent of interleaving pass their own.
//
// Scripted faults (w.Faults) are evaluated at the context's virtual time:
// RSSI ramps degrade the observed signal, outage windows force the offload
// failure path, queue spikes stretch remote service, thermal throttles
// stretch local compute. The scripted timeline needs no random draw, so a
// faulted request consumes exactly the streams an unfaulted one would.
func (w *World) ExecuteCtx(ctx *exec.Context, m *dnn.Model, t Target, c Conditions) (Measurement, error) {
	if ctx == nil {
		ctx = w.root.Child("req", w.seq.Add(1))
	}
	now := ctx.Now()
	c = w.conditionsAt(now, c)
	if t.Location != Local {
		if w.SiteDown(now, t.Location) {
			return w.executeOutage(ctx, m, t, c)
		}
		if w.OutageProb > 0 {
			st := ctx.GetStream("sim.request")
			down := st.Float64() < w.OutageProb
			exec.PutStream(st)
			if down {
				return w.executeOutage(ctx, m, t, c)
			}
		}
	}
	meas, err := w.Expected(m, t, c)
	if err != nil {
		return Measurement{}, err
	}
	w.applyWindowFaults(now, &meas)
	if w.NoiseFrac > 0 {
		st := ctx.GetStream("sim.request")
		f := 1 + w.NoiseFrac*st.NormFloat64()
		exec.PutStream(st)
		if f < 0.5 {
			f = 0.5
		}
		meas.LatencyS *= f
		meas.EnergyJ *= f
		meas.Breakdown.Compute *= f
		meas.Breakdown.Radio *= f
		meas.Breakdown.Idle *= f
	}
	ctx.Advance(meas.LatencyS)
	return meas, nil
}

// siteName maps a remote location to the fault schedule's site key.
func siteName(loc Location) string {
	switch loc {
	case Cloud:
		return fault.SiteCloud
	case Connected:
		return fault.SiteConnected
	default:
		return ""
	}
}

// SiteDown reports whether the remote location is inside a scripted outage
// window at virtual time now. Local is never down.
func (w *World) SiteDown(now float64, loc Location) bool {
	if loc == Local {
		return false
	}
	return w.Faults.Down(siteName(loc), now)
}

// conditionsAt applies scripted RSSI degradation to the observed
// conditions at virtual time now. With no injector it returns c unchanged.
func (w *World) conditionsAt(now float64, c Conditions) Conditions {
	if w.Faults == nil {
		return c
	}
	c.RSSIWLAN += w.Faults.RSSIDeltaDBm(fault.LinkWLAN, now)
	c.RSSIP2P += w.Faults.RSSIDeltaDBm(fault.LinkP2P, now)
	return c
}

// ObservedConditions returns the conditions as the runtime actually sees
// them at the context's virtual time — scripted RSSI ramps applied — so an
// agent's state observation matches what execution will experience. A nil
// ctx uses c as-is at time zero semantics (no faults are keyed on the
// clockless requests of the world's own sequence).
func (w *World) ObservedConditions(ctx *exec.Context, c Conditions) Conditions {
	if ctx == nil || w.Faults == nil {
		return c
	}
	return w.conditionsAt(ctx.Now(), c)
}

// applyWindowFaults stretches a clean measurement for any queue-spike or
// thermal-throttle window active at virtual time now. The added stall is
// spent with the platform idling (remote: device waits on the radio path;
// local: the throttled engine holds the platform awake longer).
func (w *World) applyWindowFaults(now float64, meas *Measurement) {
	if w.Faults == nil {
		return
	}
	var stall float64
	if meas.Target.Location != Local {
		stall = w.Faults.ExtraServiceS(siteName(meas.Target.Location), now)
	} else if f := w.Faults.ThrottleFactor(now); f > 1 {
		stall = meas.LatencyS * (f - 1)
	}
	if stall <= 0 {
		return
	}
	meas.LatencyS += stall
	meas.Breakdown.Idle += stall * w.Device.PlatformIdleW
	meas.EnergyJ = meas.Breakdown.Total()
}

// executeOutage models a failed offload: the device transmits until the
// timeout with no answer, then reruns the inference on the local CPU at top
// frequency. The returned measurement charges both phases, attributes the
// burned offload energy as WastedJ, and advances the virtual clock past the
// whole episode.
func (w *World) executeOutage(ctx *exec.Context, m *dnn.Model, t Target, c Conditions) (Measurement, error) {
	link := w.linkTo(t.Location)
	rssi := c.rssiFor(t.Location)
	cpu := w.Device.Processor(soc.CPU)
	if cpu == nil {
		return Measurement{}, fmt.Errorf("sim: outage fallback needs a CPU")
	}
	fallback := Target{Location: Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}
	local, err := w.Expected(m, fallback, c)
	if err != nil {
		return Measurement{}, err
	}
	wasted, err := power.Offload(link, rssi, w.OutageTimeoutS, 0, w.OutageTimeoutS, w.Device.PlatformIdleW)
	if err != nil {
		return Measurement{}, err
	}
	local.LatencyS += w.OutageTimeoutS
	local.Breakdown.Radio += wasted.Radio
	local.Breakdown.Idle += wasted.Idle
	local.EnergyJ = local.Breakdown.Total()
	local.WastedJ = wasted.Radio + wasted.Idle
	local.Target = fallback
	ctx.Advance(local.LatencyS)
	return local, nil
}

// BestTarget exhaustively searches the action space with noise-free
// expectations and picks by Choice: maximum PPW subject to the latency QoS
// and accuracy constraints — the paper's Opt oracle.
//
// Static environments ask the same question run after run, so each model
// keeps its last successful answer and returns it while the question — the
// conditions, both constraints and every world parameter Expected reads — is
// unchanged.
func (w *World) BestTarget(m *dnn.Model, c Conditions, qosS, accTarget float64) (Target, Measurement, error) {
	mp := w.plansFor(m)
	q := bestQuestion{c: c, qosS: qosS, accTarget: accTarget, wifi: *w.WiFi, p2p: *w.P2P,
		cloudS: w.CloudServiceS, tabletS: w.TabletServiceS, idleW: w.Device.PlatformIdleW}
	if a := mp.best.Load(); a != nil && a.q == q {
		return a.t, a.meas, nil
	}
	t, meas, err := w.bestTarget(mp.targets, m, c, qosS, accTarget, nil)
	if err == nil {
		mp.best.Store(&bestAnswer{q: q, t: t, meas: meas})
	}
	return t, meas, err
}

// BestTargetAt is BestTarget with fault awareness: conditions are degraded
// by any active RSSI ramp and targets whose site is inside a scripted
// outage window at virtual time now are excluded from the search (unless
// everything remote is down and no local target exists, which cannot
// happen in practice since every device has a CPU). Its answers depend on
// the time, so it never reads or writes BestTarget's memo.
func (w *World) BestTargetAt(now float64, m *dnn.Model, c Conditions, qosS, accTarget float64) (Target, Measurement, error) {
	c = w.conditionsAt(now, c)
	return w.bestTarget(w.plansFor(m).targets, m, c, qosS, accTarget, func(t Target) bool {
		return w.SiteDown(now, t.Location)
	})
}

func (w *World) bestTarget(targets []Target, m *dnn.Model, c Conditions, qosS, accTarget float64, skip func(Target) bool) (Target, Measurement, error) {
	if len(targets) == 0 {
		return Target{}, Measurement{}, fmt.Errorf("sim: no feasible target for %s", m.Name)
	}
	ch := Choice{QoSS: qosS, AccTarget: accTarget}
	for i, t := range targets {
		if skip != nil && skip(t) {
			continue
		}
		meas, err := w.Expected(m, t, c)
		if err != nil {
			return Target{}, Measurement{}, err
		}
		ch.Offer(i, meas)
	}
	i, meas, ok := ch.Result()
	if !ok {
		return Target{}, Measurement{}, fmt.Errorf("sim: every feasible target for %s is down", m.Name)
	}
	return targets[i], meas, nil
}
