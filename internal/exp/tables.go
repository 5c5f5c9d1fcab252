package exp

import (
	"fmt"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// TableI reproduces Table I: the state features with their discretization.
func TableI() *Table {
	s := core.NewStateSpace()
	t := &Table{
		ID:      "tableI",
		Title:   "State-related features",
		Columns: []string{"State", "Description", "Bins", "Cut points"},
	}
	desc := map[core.Feature]string{
		core.FeatConv:  "# of CONV layers",
		core.FeatFC:    "# of FC layers",
		core.FeatRC:    "# of RC layers",
		core.FeatMAC:   "# of MAC operations",
		core.FeatCoCPU: "CPU utilization of co-running apps (%)",
		core.FeatCoMem: "Memory usage of co-running apps (%)",
		core.FeatRSSIW: "RSSI of wireless LAN (dBm)",
		core.FeatRSSIP: "RSSI of peer-to-peer network (dBm)",
	}
	for f := core.Feature(0); int(f) < core.NumFeatures; f++ {
		t.AddRow(f.String(), desc[f], s.Bins(f), fmt.Sprintf("%v", cutsOf(f)))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("state space size: %d (paper: 3,072)", s.Size()))
	return t
}

// cutsOf returns the cut points of feature f as the paper prints them.
// The state space bins with 0.5 for "none" co-runner load and -79.999 dBm
// so that exactly -80 dBm counts as weak; the table shows the printed 0 and
// -80.
func cutsOf(f core.Feature) []float64 {
	switch f {
	case core.FeatConv:
		return []float64{30, 50, 90}
	case core.FeatFC, core.FeatRC:
		return []float64{10}
	case core.FeatMAC:
		return []float64{1000e6, 2000e6}
	case core.FeatCoCPU, core.FeatCoMem:
		return []float64{0, 25, 75}
	default:
		return []float64{-80}
	}
}

// TableII reproduces Table II: the mobile-device specifications of the
// simulated profiles.
func TableII() *Table {
	t := &Table{
		ID:      "tableII",
		Title:   "Mobile device specification (simulated profiles)",
		Columns: []string{"Device", "Engine", "Kind", "MaxGHz", "V/F steps", "Peak W", "GMAC/s", "Precisions"},
	}
	devices := append(soc.Phones(), soc.GalaxyTabS6(), soc.CloudServer())
	for _, d := range devices {
		for _, p := range d.Processors {
			precs := ""
			for i, pr := range p.Precisions {
				if i > 0 {
					precs += "/"
				}
				precs += pr.String()
			}
			t.AddRow(d.Name, p.Name, p.Kind.String(), p.MaxFreqGHz, p.Steps, p.PeakBusyW, p.PeakGMACs, precs)
		}
	}
	return t
}

// TableIII reproduces Table III: the DNN inference workloads with their
// layer compositions.
func TableIII() *Table {
	t := &Table{
		ID:      "tableIII",
		Title:   "DNN inference workloads",
		Columns: []string{"Workload", "DNN", "SCONV", "SFC", "SRC", "GMACs", "Params(M)", "FP32 acc"},
	}
	for _, m := range dnn.Zoo() {
		t.AddRow(m.Task.String(), m.Name, m.NumConv(), m.NumFC(), m.NumRC(),
			m.MACs()/1e9, m.WeightBytes()/4e6, m.Accuracy(dnn.FP32))
	}
	t.Notes = append(t.Notes,
		"paper layer counts: Inception v1 49/1/0, Inception v3 94/1/0, MobileNet v1 14/1/0, "+
			"MobileNet v2 35/1/0, MobileNet v3 23/20/0, ResNet 50 53/1/0, SSD MobileNet v1 19/1/0, "+
			"SSD MobileNet v2 52/1/0, SSD MobileNet v3 28/20/0, MobileBERT 0/1/24")
	return t
}

// TableIV reproduces Table IV: the execution environments.
func TableIV() *Table {
	t := &Table{
		ID:      "tableIV",
		Title:   "DNN inference execution environment",
		Columns: []string{"Type", "Environment", "Description"},
	}
	for _, id := range sim.AllEnvIDs() {
		env := sim.MustEnvironment(id, 1)
		typ := "Static"
		if env.Dynamic {
			typ = "Dynamic"
		}
		t.AddRow(typ, env.ID, env.Desc)
	}
	return t
}
