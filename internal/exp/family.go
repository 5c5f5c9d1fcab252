package exp

import (
	"strings"
	"sync"

	"autoscale/internal/core"
	"autoscale/internal/exec"
	"autoscale/internal/sim"
)

// A leave-one-out family is the set of engines the paper's testing protocol
// needs for one training set: for each model k, an engine trained on every
// other model, in order. The engine that holds out model k shares its first
// k training blocks with every engine that holds out a later model, so the
// family trains as a prefix tree: one chain engine trains the models in
// order, and before training model k it forks; the fork trains the models
// after k. With TrainEngine's conditions stream cloned alongside, each leaf
// is bit-identical to an engine trained on its set from scratch, at
// n(n-1)/2 + n-1 model blocks instead of n(n-1).
type family struct {
	tcfg TrainConfig
	grid []VarianceState
	// leaves[k] is trained on every model but tcfg.Models[k], and flushed.
	leaves []*core.Engine
	// chain has trained every model but the last, unflushed, and rng stands
	// where its conditions stream stood; continuing both gives the engine
	// trained on all the models.
	chain *core.Engine
	rng   *exec.Rand
}

// trainFamily trains the leave-one-out family of tcfg.Models on w, with
// tcfg's intensity and accuracy applied to ecfg as NewTrainedEngine does.
func trainFamily(w *sim.World, ecfg core.Config, tcfg TrainConfig) (*family, error) {
	ecfg.Intensity = tcfg.Intensity
	ecfg.Reward.AccuracyTarget = tcfg.Accuracy
	chain, err := core.NewEngine(w, ecfg)
	if err != nil {
		return nil, err
	}
	f := &family{
		tcfg:   tcfg,
		grid:   VarianceGrid(),
		leaves: make([]*core.Engine, len(tcfg.Models)),
		chain:  chain,
		rng:    exec.NewRoot(tcfg.Seed).Stream("exp.train"),
	}
	for k := range tcfg.Models {
		leaf, err := f.continueChain(w, k+1)
		if err != nil {
			return nil, err
		}
		f.leaves[k] = leaf
		if k < len(tcfg.Models)-1 {
			if err := trainModels(chain, tcfg.Models[k:k+1], f.grid, tcfg.RunsPerState, f.rng); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// continueChain forks the chain onto w, trains the fork on the models from
// index from on with a clone of the chain's conditions stream, and flushes
// it. The chain itself does not move.
func (f *family) continueChain(w *sim.World, from int) (*core.Engine, error) {
	e, err := f.chain.Fork(w)
	if err != nil {
		return nil, err
	}
	if err := trainModels(e, f.tcfg.Models[from:], f.grid, f.tcfg.RunsPerState, f.rng.Clone()); err != nil {
		return nil, err
	}
	return e, e.Flush()
}

// engineOn returns an engine on w that is trained on every model of the
// family except the one at index held; held < 0 holds none out (the engine
// for a model outside the training set). The family's own engines are only
// forked, never stepped, so any number of callers may share one.
func (f *family) engineOn(w *sim.World, held int) (*core.Engine, error) {
	if held < 0 {
		return f.continueChain(w, len(f.tcfg.Models)-1)
	}
	return f.leaves[held].Fork(w)
}

// familyKey is everything training a family reads, so two policies with
// equal keys on worlds left as sim.NewWorld built them train equal families.
// The world's seed is not in it: training draws only from the engine's and
// the conditions' streams.
type familyKey struct {
	device    string
	models    string
	cfg       core.Config
	intensity sim.Intensity
	accuracy  float64
	runs      int
	seed      int64
}

// familyMemo trains each family at most once per pass. It lives on the
// pass's pool, so it dies with the Run or RunAll call that made it.
type familyMemo struct {
	mu      sync.Mutex
	calls   map[familyKey]*familyCall
	trained int // families trained this pass
}

// familyCall is one family's training, shared by every cell that asks for
// it; done is closed once fam and err are set.
type familyCall struct {
	done chan struct{}
	fam  *family
	err  error
}

// sharedFamily returns the pass's family for (w's device, ecfg, tcfg). The
// first cell to ask trains it on its own world; a cell that finds it in
// flight lends its pool token back while it waits. Callers must run inside a
// cell, which holds a token, and must only fork the family's engines.
func (o Options) sharedFamily(w *sim.World, ecfg core.Config, tcfg TrainConfig) (*family, error) {
	names := make([]string, len(tcfg.Models))
	for i, m := range tcfg.Models {
		names[i] = m.Name
	}
	key := familyKey{
		device:    w.Device.Name,
		models:    strings.Join(names, "\x00"),
		cfg:       ecfg,
		intensity: tcfg.Intensity,
		accuracy:  tcfg.Accuracy,
		runs:      tcfg.RunsPerState,
		seed:      tcfg.Seed,
	}
	memo := &o.pool.families
	memo.mu.Lock()
	c, ok := memo.calls[key]
	if !ok {
		c = &familyCall{done: make(chan struct{})}
		memo.calls[key] = c
		memo.trained++
	}
	memo.mu.Unlock()
	if !ok {
		defer close(c.done)
		c.fam, c.err = trainFamily(w, ecfg, tcfg)
		return c.fam, c.err
	}
	select {
	case <-c.done:
	default:
		o.lend(func() { <-c.done })
	}
	return c.fam, c.err
}
