// Package ckpt frames durable payloads into versioned, checksummed
// snapshots and provides crash-safe file persistence for them.
//
// On-disk layout (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "DAGCKPT1"
//	8       4     format version (currently 1)
//	12      8     payload length in bytes
//	20      n     payload: the caller's bytes, e.g. deterministic JSON
//	              of a fleet shard's twin sim.SystemState pair or of
//	              the dagauditd service state
//	20+n    32    SHA-256 over bytes [0, 20+n)
//
// Simulator state payloads are canonical: every map in the state layer is
// serialized as a sorted pair list, so encoding the same state twice
// yields identical bytes. Unframe never panics on hostile input; every
// rejection is one of the typed sentinel errors below, distinguishable
// with errors.Is.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Magic identifies a DAGguise checkpoint file.
const Magic = "DAGCKPT1"

// Version is the current snapshot format version. Decoders reject any other
// version rather than guessing at field layout.
const Version uint32 = 1

const (
	headerLen   = 8 + 4 + 8
	checksumLen = sha256.Size
	// maxPayload bounds the declared payload length so a corrupted length
	// field cannot drive a huge allocation before the checksum is verified.
	maxPayload = 1 << 32
)

// Typed sentinel errors. Unframe and DecodeStrict wrap them with detail;
// match with errors.Is.
var (
	ErrTruncated          = errors.New("ckpt: snapshot truncated")
	ErrBadMagic           = errors.New("ckpt: not a checkpoint (bad magic)")
	ErrUnsupportedVersion = errors.New("ckpt: unsupported format version")
	ErrChecksum           = errors.New("ckpt: checksum mismatch")
	ErrCorrupt            = errors.New("ckpt: corrupt payload")
)

// Frame wraps an arbitrary payload in the versioned, checksummed snapshot
// framing (magic, version, length, payload, SHA-256). Fleet shard
// checkpoints, the dagauditd tenant-auditor checkpoint and
// fault schedules under test all use it, so every on-disk artifact gets
// the same truncation/corruption detection.
func Frame(payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+checksumLen)
	buf = append(buf, Magic...)
	buf = binary.BigEndian.AppendUint32(buf, Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// Unframe validates the snapshot framing and returns the payload bytes. It
// rejects truncated, corrupted or incompatible input with a typed sentinel
// error and never panics.
func Unframe(data []byte) ([]byte, error) {
	if len(data) < headerLen+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), headerLen+checksumLen)
	}
	if !bytes.Equal(data[:8], []byte(Magic)) {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, data[:8])
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build reads v%d", ErrUnsupportedVersion, v, Version)
	}
	plen := binary.BigEndian.Uint64(data[12:20])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: declared payload of %d bytes is implausible", ErrCorrupt, plen)
	}
	want := headerLen + int(plen) + checksumLen
	if len(data) < want {
		return nil, fmt.Errorf("%w: %d bytes, header declares %d", ErrTruncated, len(data), want)
	}
	if len(data) > want {
		return nil, fmt.Errorf("%w: %d trailing bytes after checksum", ErrCorrupt, len(data)-want)
	}
	body := data[:headerLen+plen]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[headerLen+plen:]) {
		return nil, fmt.Errorf("%w", ErrChecksum)
	}
	return body[headerLen:], nil
}

// DecodeStrict decodes a JSON payload into v, refusing fields v does not
// have: a snapshot written by a build with a different state shape fails
// loudly instead of resuming with part of its state silently dropped.
// Failures wrap ErrCorrupt.
func DecodeStrict(payload []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// SaveFrame atomically persists an arbitrary payload under the snapshot
// framing — the durable-write path for fleet shard checkpoints and the
// dagauditd service state.
func SaveFrame(path string, payload []byte) error {
	return WriteFileAtomic(path, Frame(payload))
}

// LoadFrame reads the framed file at path and returns its validated
// payload.
func LoadFrame(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read %s: %w", path, err)
	}
	payload, err := Unframe(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return payload, nil
}

// WriteFileAtomic durably writes data to path via a same-directory temp
// file, fsync, rename, and directory fsync. It is also used for the
// fleet manifest and the CLIs' deterministic reports.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: create dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
