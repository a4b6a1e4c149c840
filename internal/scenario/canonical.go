package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
)

// This file defines the canonical Spec wire form — the documented
// encoding behind corpus pins, repro bundles, and powersimd cache keys.
//
// Canonical form:
//
//   - One compact JSON document (no insignificant whitespace), keys in
//     lexicographic order at every object level, no trailing newline.
//   - The version field "v" is always present and equals SpecVersion.
//   - Fields at their zero value are omitted exactly where the Spec
//     struct tags say omitempty — the canonical bytes of a spec and of
//     its decode→encode round trip are identical.
//   - Numbers and strings are as encoding/json writes them (64-bit seeds
//     exact; <, >, & and U+2028/9 escaped), except that a byte that is
//     not valid UTF-8 is a literal U+FFFD, not the escape \ufffd: what
//     marshalling twice, as these bytes were first made, left there.
//
// One encoder (canonenc.go) writes them in a single pass over the struct;
// canonical_diff_test.go holds it to encoding/json spec by spec.
//
// Two Specs are semantically equal exactly when their canonical bytes
// are equal, and SpecKey extends that equality to the full run identity
// (spec, seed, partition count): because the engine is deterministic, a
// run's Result bytes are a pure function of its SpecKey — which is what
// makes the content-addressed Result cache (internal/serve) exact
// rather than heuristic.
//
// DecodeSpec is strict: unknown fields and version mismatches are
// errors, so a request written against a future spec vocabulary can
// never be silently misread as this one (and then cached under a key
// that collides with the misreading).

// SpecVersion is the current canonical Spec encoding version.
//
// Version history:
//   - 1: initial canonical form.
//   - 2: adds the per-component "fidelity" field (hybrid packet/fluid
//     co-simulation). Version-1 documents are a strict subset of the
//     v2 vocabulary, so DecodeSpec accepts them and normalizes.
const SpecVersion = 2

// legacySpecVersion is the oldest version DecodeSpec still accepts;
// every field vocabulary since then is a subset of the current one.
const legacySpecVersion = 1

// MarshalCanonical renders the Spec in canonical form, in a slice with no
// scratch behind the bytes. A zero V is normalized to SpecVersion; any
// other mismatched version is an error (an in-memory Spec carrying a
// foreign version is a decode that should have failed), as is NaN or ±Inf.
func MarshalCanonical(sp *Spec) ([]byte, error) {
	var scratch [canonScratch]byte
	b, err := appendCanonical(scratch[:0], sp)
	return bytes.Clone(b), err
}

// canonScratch is the stack the bytes are built on, twice the largest preset; a bigger spec moves to the heap.
const canonScratch = 1024

// appendCanonical appends sp's canonical bytes to b.
func appendCanonical(b []byte, sp *Spec) ([]byte, error) {
	if sp.V == 0 {
		norm := *sp
		norm.V = SpecVersion
		sp = &norm
	} else if sp.V != SpecVersion {
		return nil, fmt.Errorf("scenario: cannot canonicalize spec version %d (current %d)", sp.V, SpecVersion)
	}
	b, err := appendValue(b, specPlan(), reflect.ValueOf(sp).Elem())
	if err != nil {
		return nil, fmt.Errorf("scenario: marshaling spec: %w", err)
	}
	return b, nil
}

// DecodeSpec parses canonical (or hand-written) Spec JSON strictly:
// unknown fields are rejected, and the document's version must be
// SpecVersion, a still-supported legacy version, or absent/zero
// (accepted for pre-versioning documents), and its scheme must be one
// ResolveScheme knows. The returned Spec has V normalized to
// SpecVersion.
func DecodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	// A second document in the payload is malformed input, not trailing
	// garbage to ignore.
	if dec.More() {
		return nil, fmt.Errorf("scenario: decoding spec: trailing data after JSON document")
	}
	switch sp.V {
	case 0, legacySpecVersion, SpecVersion:
		sp.V = SpecVersion
	default:
		return nil, fmt.Errorf("scenario: unsupported spec version %d (current %d)", sp.V, SpecVersion)
	}
	if _, err := baseScheme(sp.Scheme); err != nil {
		return nil, err
	}
	return &sp, nil
}

// SpecKey returns the content address of one run:
// hex(sha256(canonical(spec) ‖ seed ‖ parts)). Seed and partition count
// are hashed alongside the spec because both are run inputs the Spec
// body does not fully pin down (the service may override the seed, and
// parts is the worker count over the fabric's shards — identical Results
// by the determinism contract, but a distinct supervised run worth its
// own cache slot while budgets are partition-aware). The key is a
// contract with caches already written, so parts stays in it.
func SpecKey(sp *Spec, seed int64, parts int) (string, error) {
	key, _, err := SpecKeyOf(sp, seed, parts, nil)
	return key, err
}

// SpecKeyOf is SpecKey that also reports whether body is exactly sp's
// canonical bytes, compared against the bytes the key is hashed from.
func SpecKeyOf(sp *Spec, seed int64, parts int, body []byte) (key string, canonical bool, err error) {
	var scratch [canonScratch]byte
	b, err := appendCanonical(scratch[:0], sp)
	if err != nil {
		return "", false, err
	}
	canonical = bytes.Equal(b, body)
	b = binary.BigEndian.AppendUint64(b, uint64(seed))
	b = binary.BigEndian.AppendUint64(b, uint64(parts))
	sum := sha256.Sum256(b)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:]), canonical, nil
}
