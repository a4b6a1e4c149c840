package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/units"
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

// keptArrays lists, by name, every array the scratch keeps for the next
// lab, each over its whole capacity: the fabric's (topo.Memory keeps them
// unexported; reflect may look), each transport's hosts, and each block
// of each transport's flow table, spares included.
func keptArrays(sc *runScratch) map[string]reflect.Value {
	whole := func(v reflect.Value) reflect.Value { return v.Slice(0, v.Cap()) }
	out := map[string]reflect.Value{
		"hosts":     whole(reflect.ValueOf(sc.hosts)),
		"homaHosts": whole(reflect.ValueOf(sc.homaHosts)),
	}
	fab := reflect.ValueOf(&sc.fabric).Elem()
	for i := range fab.NumField() {
		out["fabric."+fab.Type().Field(i).Name] = whole(fab.Field(i))
	}
	for name, t := range map[string]packet.Table{"flows": sc.flows, "homaFlows": sc.homaFlows} {
		if t == nil {
			continue
		}
		blocks := reflect.ValueOf(t).Elem().FieldByName("blocks")
		for j := range blocks.Len() {
			out[fmt.Sprintf("%s.block[%d]", name, j)] = blocks.Index(j).Elem()
		}
	}
	return out
}

// nonZero returns the names of the kept arrays that hold a non-zero
// element.
func nonZero(kept map[string]reflect.Value) []string {
	var out []string
	for name, v := range kept {
		for j := range v.Len() {
			if !v.Index(j).IsZero() {
				out = append(out, fmt.Sprintf("%s[%d]", name, j))
				break
			}
		}
	}
	return out
}

// arrayAt is where an array lives and how many elements it holds.
type arrayAt struct {
	at  uintptr
	len int
}

// whereKept returns where each kept array lives.
func whereKept(kept map[string]reflect.Value) map[string]arrayAt {
	out := map[string]arrayAt{}
	for name, v := range kept {
		at := arrayAt{len: v.Len()}
		if v.Len() > 0 {
			at.at = v.Index(0).UnsafeAddr()
		}
		out[name] = at
	}
	return out
}

// lastKeptPortRate points at the Rate of the last port the scratch's
// fabric memory keeps, for a test to mark a port no smaller lab carves.
func lastKeptPortRate(sc *runScratch) *units.BitRate {
	ports := keptArrays(sc)["fabric.ports"]
	return (*units.BitRate)(unsafe.Pointer(ports.Index(ports.Len() - 1).FieldByName("Rate").UnsafeAddr()))
}
