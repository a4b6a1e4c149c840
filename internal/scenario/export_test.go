package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// PodShardHosts is the size from which a fat-tree is built on its pod
// plan, for the tests that stand on either side of it.
const PodShardHosts = podShardHosts

// SingleEngine returns the topology kept on one engine at any size. A
// large fat-tree asked for one partition is sharded too, so a suite that
// compares "serial" with "partitioned" would compare shards with shards;
// this is the leg that is not.
func SingleEngine(t FatTreeTopology) FatTreeTopology {
	t.singleEngine = true
	return t
}

// MarshalCanonicalOracle is how canonical bytes were made until the
// one-pass encoder replaced it, kept as the reference the encoder is
// held against: marshal the struct (the tags decide omission), decode
// into an untyped document with UseNumber (a float64 would corrupt seeds
// above 2^53), and marshal that, which sorts every object's keys.
func MarshalCanonicalOracle(sp *Spec) ([]byte, error) {
	if sp.V != 0 && sp.V != SpecVersion {
		return nil, fmt.Errorf("scenario: cannot canonicalize spec version %d (current %d)", sp.V, SpecVersion)
	}
	norm := *sp
	norm.V = SpecVersion
	first, err := json.Marshal(&norm)
	if err != nil {
		return nil, fmt.Errorf("scenario: marshaling spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(first))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("scenario: canonicalizing spec: %w", err)
	}
	return json.Marshal(doc)
}

// SpecKeyOracle is the content address computed the old way, from the
// oracle's bytes through a streaming hash.
func SpecKeyOracle(sp *Spec, seed int64, parts int) (string, error) {
	canon, err := MarshalCanonicalOracle(sp)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(canon)
	var tail [16]byte
	binary.BigEndian.PutUint64(tail[:8], uint64(seed))
	binary.BigEndian.PutUint64(tail[8:], uint64(parts))
	h.Write(tail[:])
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
