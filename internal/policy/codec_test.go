package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"

	"autoscale/internal/rl"
)

// testSnapshot builds a raw rl snapshot with the given rows and visits (a row
// without a visit entry counts one visit). The policy plane never puts a
// table on a state grid, so the keys are free-form.
func testSnapshot(t testing.TB, actions int, q map[rl.State][]float64, visits map[rl.State]int) []byte {
	t.Helper()
	tbl := rl.Table{Config: rl.DefaultConfig(), Actions: actions, Q: q, Visits: map[rl.State]int{}}
	for s := range q {
		tbl.Visits[s] = 1
		if n, ok := visits[s]; ok {
			tbl.Visits[s] = n
		}
	}
	data, err := tbl.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rl.DecodeTable(data); err != nil {
		t.Fatal(err)
	}
	return data
}

func testCk(t testing.TB, device string) *Checkpoint {
	t.Helper()
	snap := testSnapshot(t, 3,
		map[rl.State][]float64{"s1": {1, 2, 3}, "s2": {-1, 0, 1}},
		map[rl.State]int{"s1": 5, "s2": 2})
	ck, err := NewCheckpoint(device, "cafebabe00000000", snap)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestCodecRoundTrip(t *testing.T) {
	ck := testCk(t, "Mi8Pro")
	ck.Generation = 7
	ck.Sources = []string{"a", "b"}
	data, err := Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Device != "Mi8Pro" || got.Generation != 7 || got.ConfigHash != ck.ConfigHash {
		t.Fatalf("meta mangled: %+v", got.Meta)
	}
	if got.Actions != 3 || got.States != 2 || got.Meta.TotalVisits() != 7 {
		t.Fatalf("meta counts wrong: %+v", got.Meta)
	}
	tbl, err := got.Table()
	if err != nil {
		t.Fatal(err)
	}
	if q := tbl.Q["s1"][2]; q != 3 {
		t.Fatalf("payload Q(s1,2) = %v, want 3", q)
	}
	if v := tbl.Visits["s2"]; v != 2 {
		t.Fatalf("payload visits(s2) = %d, want 2", v)
	}
}

// TestDecodeRejectsEveryBitFlip flips every bit of a valid envelope, one at
// a time, and requires Decode to either fail or return a checkpoint
// byte-identical to the original: no single-bit corruption may ever load an
// altered table. (Flips inside JSON *key names* can still decode — Go's
// unmarshaler matches keys case-insensitively — but the CRC guarantees the
// body content is untouched, so such decodes must be exact.)
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	orig := testCk(t, "Mi8Pro")
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= 1 << bit
			got, err := Decode(mutated)
			if err != nil {
				continue
			}
			if got.Device != orig.Device || got.ConfigHash != orig.ConfigHash ||
				got.Actions != orig.Actions || got.States != orig.States ||
				!bytes.Equal(got.Snapshot, orig.Snapshot) {
				t.Fatalf("bit flip at byte %d bit %d decoded to an ALTERED checkpoint", i, bit)
			}
		}
	}
}

// TestDecodeRejectsEveryTruncation cuts the envelope at every length and
// requires a loud failure — a torn write must never load as a smaller table.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data, err := Encode(testCk(t, "Mi8Pro"))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(data))
		}
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	body, err := json.Marshal(fileBody{Meta: testCk(t, "x").Meta, Snapshot: testCk(t, "x").Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(fileEnvelope{Magic: Magic, Version: Version + 1,
		CRC32: crc32.ChecksumIEEE(body), Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(env); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}
}

func TestDecodeNotEnvelope(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("garbage"),
		testSnapshot(t, 2, map[rl.State][]float64{"s": {1, 2}}, nil), // legacy raw snapshot
		[]byte(`{"magic":"WRONG","version":1,"crc32":0,"body":{}}`),
	} {
		if _, err := Decode(data); !errors.Is(err, ErrNotEnvelope) {
			t.Errorf("Decode(%.30q) = %v, want ErrNotEnvelope", data, err)
		}
	}
}

func TestDecodeTrailingData(t *testing.T) {
	data, err := Encode(testCk(t, "Mi8Pro"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(data, " {}"...)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing data: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeMetaPayloadMismatch covers an envelope whose (CRC-valid) body
// lies about its payload: metadata action count disagreeing with the table.
func TestDecodeMetaPayloadMismatch(t *testing.T) {
	ck := testCk(t, "Mi8Pro")
	ck.Actions = 99
	data, err := Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("meta/payload mismatch: err = %v, want ErrCorrupt", err)
	}
}

// FuzzDecode asserts Decode never panics and never returns an unverifiable
// checkpoint, whatever bytes it is fed.
func FuzzDecode(f *testing.F) {
	valid, err := Encode(testCk(f, "Mi8Pro"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"magic":"ASPOLICY","version":1,"crc32":0,"body":{}}`))
	f.Add([]byte(`{"config":{},"actions":0,"q":{}}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode must yield a valid table that matches its own
		// metadata.
		tbl, err := ck.Table()
		if err != nil {
			t.Fatalf("Decode accepted a checkpoint with an invalid payload: %v", err)
		}
		if tbl.Actions != ck.Actions {
			t.Fatalf("Decode accepted mismatched action counts: meta %d, payload %d",
				ck.Actions, tbl.Actions)
		}
	})
}
