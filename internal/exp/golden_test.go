package exp

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// -update rewrites testdata/quick_digests.txt from this tree. The committed
// file was recorded on the commit before leave-one-out families were trained
// as prefix trees and shared across a pass; run it again only when a table is
// meant to move, and say so in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/quick_digests.txt from this tree")

// TestQuickDigests pins every experiment's rendered table at Quick(42) to the
// sha256 recorded in testdata: the byte contract of the reproduction, checked
// for all of them at once rather than one figure at a time.
func TestQuickDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment")
	}
	const file = "testdata/quick_digests.txt"
	var got strings.Builder
	for _, out := range RunAll(IDs(), Quick(42)) {
		if out.Err != nil {
			t.Fatalf("%s: %v", out.ID, out.Err)
		}
		fmt.Fprintf(&got, "%s\t%x\n", out.ID, sha256.Sum256([]byte(out.Table.String())))
	}
	if *update {
		if err := os.WriteFile(file, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d experiments, %d recorded:\n got:\n%s\nwant:\n%s", len(gotLines), len(wantLines), got.String(), want)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("table moved: got %q, want %q", gotLines[i], wantLines[i])
		}
	}
}
