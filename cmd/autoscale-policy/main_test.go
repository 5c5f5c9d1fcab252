package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoscale"
)

// writeCk trains a small table on a device with the train subcommand and
// returns the envelope's path and the config hash a fresh engine for that
// device carries.
func writeCk(t *testing.T, dir, device string, seed int64) (string, string) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", device, seed))
	if err := run([]string{"train", "-device", device, "-runs", "1", "-seed", fmt.Sprint(seed), "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	engine, err := newEngine(device, seed)
	if err != nil {
		t.Fatal(err)
	}
	return path, engine.ConfigHash()
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"inspect"},
		{"diff", "only-one.ckpt"},
		{"merge", "-o", "x.ckpt", "just-one.ckpt"},
		{"merge", "a.ckpt", "b.ckpt"}, // no -o
		{"train", "-runs", "1"},       // no -o
		{"show"},
		{"show", "a.ckpt", "b.ckpt"},
		{"health"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestInspectFileAndStore(t *testing.T) {
	dir := t.TempDir()
	path, hash := writeCk(t, dir, autoscale.Mi8Pro, 1)

	var out bytes.Buffer
	if err := run([]string{"inspect", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Mi8Pro") || !strings.Contains(out.String(), hash) {
		t.Fatalf("inspect output missing metadata:\n%s", out.String())
	}

	// Store-mode inspect over a real store directory.
	storeDir := t.TempDir()
	store, err := autoscale.OpenPolicyStore(storeDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := autoscale.ReadPolicyCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.SaveNext(ck); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := run([]string{"inspect", "-store", storeDir}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "gen "); got != 2 {
		t.Fatalf("store inspect listed %d generations, want 2:\n%s", got, out.String())
	}

	out.Reset()
	if err := run([]string{"inspect", "-store", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "store is empty") {
		t.Fatalf("empty store output: %s", out.String())
	}
}

func TestDiffAndMerge(t *testing.T) {
	dir := t.TempDir()
	pathA, hash := writeCk(t, dir, autoscale.Mi8Pro, 1)
	pathB, _ := writeCk(t, dir, autoscale.Mi8Pro, 99)

	var out bytes.Buffer
	if err := run([]string{"diff", pathA, pathB}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "shared") {
		t.Fatalf("diff output missing coverage summary:\n%s", out.String())
	}

	merged := filepath.Join(dir, "fleet.ckpt")
	out.Reset()
	if err := run([]string{"merge", "-o", merged, pathA, pathB}, &out); err != nil {
		t.Fatal(err)
	}
	ck, err := autoscale.ReadPolicyCheckpoint(merged)
	if err != nil {
		t.Fatalf("merged output unreadable: %v", err)
	}
	if ck.ConfigHash != hash || len(ck.Sources) != 2 {
		t.Fatalf("merged meta: %+v", ck.Meta)
	}
	if !strings.Contains(out.String(), "merged from") {
		t.Fatalf("merge output missing sources:\n%s", out.String())
	}

	// Different devices have different action spaces/config hashes: merge
	// must refuse, diff must degrade to coverage-only.
	pathC, _ := writeCk(t, dir, autoscale.GalaxyS10e, 1)
	if err := run([]string{"merge", "-o", merged, pathA, pathC}, &out); err == nil {
		t.Fatal("merge accepted incompatible checkpoints")
	}
	out.Reset()
	if err := run([]string{"diff", pathA, pathC}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "incompatible") {
		t.Fatalf("cross-device diff missing incompatibility note:\n%s", out.String())
	}
}

// TestTrainSaveTransfer: train writes an envelope whose payload is the
// table the paper's protocol produces (engine seeded S, training seeded
// S+1), and a donor envelope transfers onto a device with a different
// action space, its device read from the envelope.
func TestTrainSaveTransfer(t *testing.T) {
	dir := t.TempDir()
	donorPath, _ := writeCk(t, dir, autoscale.Mi8Pro, 3)
	ck, err := autoscale.ReadPolicyCheckpoint(donorPath)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := newEngine(autoscale.Mi8Pro, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := autoscale.Train(engine, autoscale.Models(), 1, 4); err != nil {
		t.Fatal(err)
	}
	want, err := engine.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Device != autoscale.Mi8Pro || !bytes.Equal(ck.Snapshot, want) {
		t.Fatalf("train envelope (device %s) does not carry the protocol's table", ck.Device)
	}

	outPath := filepath.Join(dir, "s10e.ckpt")
	var out bytes.Buffer
	if err := run([]string{"train", "-device", autoscale.GalaxyS10e, "-runs", "1", "-seed", "2",
		"-transfer", donorPath, "-o", outPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "transferred Q-table from Mi8Pro") {
		t.Errorf("transfer not reported:\n%s", out.String())
	}
	if err := run([]string{"inspect", outPath}, &out); err != nil {
		t.Fatalf("transferred envelope does not inspect: %v", err)
	}
}

func TestTrainErrors(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.ckpt")
	if err := run([]string{"train", "-device", "iPhone", "-runs", "1", "-o", outPath}, io.Discard); err == nil {
		t.Error("unknown device should fail")
	}
	if err := run([]string{"train", "-runs", "1", "-transfer", "/does/not/exist.ckpt", "-o", outPath}, io.Discard); err == nil {
		t.Error("missing donor envelope should fail")
	}
	// A donor whose config hash no fresh engine for its device carries is
	// refused before the transfer.
	donorPath, _ := writeCk(t, dir, autoscale.Mi8Pro, 1)
	ck, err := autoscale.ReadPolicyCheckpoint(donorPath)
	if err != nil {
		t.Fatal(err)
	}
	ck.ConfigHash = "0000000000000000"
	if err := autoscale.WritePolicyCheckpoint(donorPath, ck); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"train", "-device", autoscale.GalaxyS10e, "-runs", "1", "-transfer", donorPath, "-o", outPath}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Errorf("donor with a foreign config hash: err = %v", err)
	}
}

func TestShowTrainedTable(t *testing.T) {
	path, hash := writeCk(t, t.TempDir(), autoscale.Mi8Pro, 1)
	var out bytes.Buffer
	if err := run([]string{"show", "-model", "ResNet 50", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{hash, "greedy action", "key: SCONV"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("show output missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"show", "-model", "AlexNet", path}, io.Discard); err == nil {
		t.Error("unknown model should fail")
	}
	if err := run([]string{"show", "-device", "iPhone", path}, io.Discard); err == nil {
		t.Error("unknown device should fail")
	}
	if err := run([]string{"show", "/does/not/exist.ckpt"}, io.Discard); err == nil {
		t.Error("missing envelope should fail")
	}
}

// TestShowCheckpointEnvelope: a store generation shows with its metadata,
// and a merged fleet envelope, which names no hardware, shows once -device
// says what to restore it onto.
func TestShowCheckpointEnvelope(t *testing.T) {
	dir := t.TempDir()
	pathA, _ := writeCk(t, dir, autoscale.Mi8Pro, 1)
	ck, err := autoscale.ReadPolicyCheckpoint(pathA)
	if err != nil {
		t.Fatal(err)
	}
	ck.Generation = 3
	gen := filepath.Join(dir, "gen-0000000000000003.ckpt")
	if err := autoscale.WritePolicyCheckpoint(gen, ck); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"show", gen}, &out); err != nil {
		t.Fatalf("checkpoint envelope rejected: %v", err)
	}
	if !strings.Contains(out.String(), "gen 3") {
		t.Errorf("show output missing the generation:\n%s", out.String())
	}

	pathB, _ := writeCk(t, dir, autoscale.Mi8Pro, 2)
	fleet := filepath.Join(dir, "fleet.ckpt")
	if err := run([]string{"merge", "-o", fleet, pathA, pathB}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"show", fleet}, io.Discard); err == nil || !strings.Contains(err.Error(), "-device") {
		t.Errorf("merged envelope without -device: err = %v", err)
	}
	out.Reset()
	if err := run([]string{"show", "-device", autoscale.Mi8Pro, fleet}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "merged from") {
		t.Errorf("merged show output missing sources:\n%s", out.String())
	}
}

// TestShowRejectsRawSnapshot: a bare rl snapshot is not a table file; show,
// health and train -transfer all refuse it.
func TestShowRejectsRawSnapshot(t *testing.T) {
	dir := t.TempDir()
	engine, err := newEngine(autoscale.Mi8Pro, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := autoscale.Train(engine, autoscale.Models(), 1, 2); err != nil {
		t.Fatal(err)
	}
	snap, err := engine.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	raw := filepath.Join(dir, "raw.qtable")
	if err := os.WriteFile(raw, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"show", "-device", autoscale.Mi8Pro, raw},
		{"health", "-device", autoscale.Mi8Pro, raw},
		{"train", "-runs", "1", "-transfer", raw, "-o", filepath.Join(dir, "out.ckpt")},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted a raw snapshot", args)
		}
	}
}

// TestShowRejectsTruncatedFiles: an empty or cut-off envelope, or one
// restored onto an engine whose config hash differs, is an error — never a
// silently empty, smaller or mismatched table.
func TestShowRejectsTruncatedFiles(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeCk(t, dir, autoscale.Mi8Pro, 1)
	envelope, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty.ckpt":        nil,
		"cut-envelope.ckpt": envelope[:len(envelope)/2],
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"show", p}, io.Discard); err == nil {
			t.Errorf("%s loaded without error", name)
		}
	}
	err = run([]string{"show", "-device", autoscale.GalaxyS10e, path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Errorf("Mi8Pro table onto a GalaxyS10e engine: err = %v", err)
	}
}

// TestHealthSubcommand checks the learning-health view of a stored table:
// coverage and visit entropy are printed with sane values.
func TestHealthSubcommand(t *testing.T) {
	path, _ := writeCk(t, t.TempDir(), autoscale.Mi8Pro, 1)
	var out bytes.Buffer
	if err := run([]string{"health", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"device=Mi8Pro", "algorithm=Q-learning", "coverage", "visit entropy", "visits"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("health output missing %q in:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "(0.00%)") {
		t.Errorf("trained table reports zero coverage:\n%s", out.String())
	}
}

func TestHealthSubcommandErrors(t *testing.T) {
	path, _ := writeCk(t, t.TempDir(), autoscale.Mi8Pro, 1)
	if err := run([]string{"health", "-device", "iPhone", path}, io.Discard); err == nil {
		t.Error("health with unknown device accepted")
	}
	if err := run([]string{"health", "/does/not/exist.ckpt"}, io.Discard); err == nil {
		t.Error("health with missing envelope accepted")
	}
}
