package policy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
)

// The on-disk envelope is a single JSON document:
//
//	{"magic":"ASPOLICY","version":1,"crc32":<IEEE over body bytes>,"body":{...}}
//
// where body carries the metadata and the base64-encoded rl snapshot. The
// CRC is computed over the exact serialized body bytes, which json.RawMessage
// preserves verbatim on decode, so any bit flip or truncation inside the
// body fails verification; flips in the framing fields break the magic,
// version or CRC comparison instead. Decode never returns a checkpoint
// unless the checksum, schema version and payload all verify.

// Magic identifies a policy checkpoint envelope.
const Magic = "ASPOLICY"

// Version is the envelope schema version this build reads and writes.
const Version = 1

type fileEnvelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	CRC32   uint32          `json:"crc32"`
	Body    json.RawMessage `json:"body"`
}

type fileBody struct {
	Meta     Meta   `json:"meta"`
	Snapshot []byte `json:"snapshot"`
}

// Encode serializes a checkpoint into its envelope bytes.
func Encode(c *Checkpoint) ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("policy: encode nil checkpoint")
	}
	body, err := json.Marshal(fileBody{Meta: c.Meta, Snapshot: c.Snapshot})
	if err != nil {
		return nil, fmt.Errorf("policy: encode: %w", err)
	}
	env := fileEnvelope{Magic: Magic, Version: Version, CRC32: crc32.ChecksumIEEE(body), Body: body}
	return json.Marshal(env)
}

// Decode verifies and parses envelope bytes into a checkpoint. It
// distinguishes "this is not an envelope at all" (ErrNotEnvelope — a bare
// rl snapshot, say) from "this is a damaged or unsupported
// envelope" (ErrCorrupt / ErrVersion — callers must fail loudly). The
// payload is fully validated as an rl.Table, so a successful Decode can never
// hand garbage to an engine.
func Decode(data []byte) (*Checkpoint, error) {
	var env fileEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		// Errors only: a whole envelope followed by more bytes is a damaged
		// file; anything else is not an envelope. (The happy path skips the
		// streaming decoder, whose doubling buffer cost 3x the input.)
		if json.NewDecoder(bytes.NewReader(data)).Decode(&env) == nil && env.Magic == Magic {
			return nil, fmt.Errorf("%w: trailing data after envelope", ErrCorrupt)
		}
		return nil, ErrNotEnvelope
	}
	if env.Magic != Magic {
		return nil, ErrNotEnvelope
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: file version %d, supported %d", ErrVersion, env.Version, Version)
	}
	if got := crc32.ChecksumIEEE(env.Body); got != env.CRC32 {
		return nil, fmt.Errorf("%w: CRC32 mismatch (file %08x, computed %08x)", ErrCorrupt, env.CRC32, got)
	}
	var body fileBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrCorrupt, err)
	}
	ck := &Checkpoint{Meta: body.Meta, Snapshot: body.Snapshot}
	tbl, err := ck.Table()
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if tbl.Actions != ck.Actions {
		return nil, fmt.Errorf("%w: metadata says %d actions, payload has %d",
			ErrCorrupt, ck.Actions, tbl.Actions)
	}
	return ck, nil
}

// WriteFile encodes a checkpoint to a standalone envelope file (no store
// semantics — for the CLI tools; use Store for durable fleet state).
func WriteFile(path string, c *Checkpoint) error {
	data, err := Encode(c)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile decodes a standalone envelope file.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("policy: %s: %w", path, err)
	}
	return c, nil
}
