package main

import (
	"os"
	"path/filepath"
	"testing"

	"autoscale"
)

func TestBuildPolicyNames(t *testing.T) {
	w, err := autoscale.NewWorld(autoscale.Mi8Pro, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"opt":          "Opt",
		"edge-cpu":     "Edge (CPU FP32)",
		"edge-best":    "Edge (Best)",
		"cloud":        "Cloud",
		"connected":    "Connected Edge",
		"mosaic":       "MOSAIC",
		"neurosurgeon": "NeuroSurgeon",
	}
	for arg, want := range cases {
		p, _, err := buildPolicyEngine(w, arg, autoscale.NonStreaming, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", arg, err)
		}
		if p.Name() != want {
			t.Errorf("buildPolicyEngine(%s) = %s, want %s", arg, p.Name(), want)
		}
	}
	if _, _, err := buildPolicyEngine(w, "magic", autoscale.NonStreaming, 1, 1); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// A tiny end-to-end pass of the tool's core loop with the opt policy.
	if err := run(autoscale.Mi8Pro, "MobileNet v1", autoscale.EnvS1, "opt", 3, 1, false, 1, false, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("iPhone", "", autoscale.EnvS1, "opt", 1, 1, false, 1, false, ""); err == nil {
		t.Error("unknown device should fail")
	}
	if err := run(autoscale.Mi8Pro, "AlexNet", autoscale.EnvS1, "opt", 1, 1, false, 1, false, ""); err == nil {
		t.Error("unknown model should fail")
	}
	if err := run(autoscale.Mi8Pro, "", "S9", "opt", 1, 1, false, 1, false, ""); err == nil {
		t.Error("unknown environment should fail")
	}
}

func TestTraceFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	if err := run(autoscale.Mi8Pro, "MobileNet v1", autoscale.EnvS1, "autoscale", 5, 1, false, 1, false, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := autoscale.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("trace records = %d, want 5", len(recs))
	}
	// Tracing requires the autoscale policy.
	if err := run(autoscale.Mi8Pro, "MobileNet v1", autoscale.EnvS1, "opt", 1, 1, false, 1, false, path); err == nil {
		t.Error("-trace with a non-autoscale policy should fail")
	}
}

func TestCanonical(t *testing.T) {
	if canonical("Edge (CPU FP32)") != "edgecpu" {
		t.Errorf("canonical = %q", canonical("Edge (CPU FP32)"))
	}
	if canonical("edge-cpu") != "edgecpu" {
		t.Error("flag form must canonicalize identically")
	}
}
