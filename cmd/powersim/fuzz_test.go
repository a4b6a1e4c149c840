package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/guard"
	"repro/internal/scenario"
)

// A repro bundle written by guard replays at the seed and partition count
// it records, with the Result of a direct run of its spec there; a bare
// corpus spec replays at one partition. Either way the invariant battery
// compares the serial run with the spec's whole partition axis, and a
// bundle's own count joins it.
func TestReplayBundle(t *testing.T) {
	corpus := filepath.Join("..", "..", "internal", "fuzzlab", "testdata", "corpus", "drop-undercount.json")
	raw, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustDecode(t, raw)
	sp.Seed += 17
	const parts = 3
	path, err := guard.WriteBundle(t.TempDir(), sp, parts, errors.New("injected crash"))
	if err != nil {
		t.Fatal(err)
	}
	direct := func(sp *scenario.Spec, parts int) []byte {
		t.Helper()
		sc, err := sp.Build(parts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	drift := filepath.Join("..", "..", "internal", "fuzzlab", "testdata", "corpus", "partition-step-drift.json")
	for _, c := range []struct {
		file  string
		parts int
		axis  []int
	}{
		{path, parts, []int{1, 2, 4, 8, parts}},
		{corpus, 1, []int{1, 2, 4, 8}},
		{drift, 1, []int{1, 2, 4, 8}},
	} {
		b, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		csp, gotParts, axis, err := decodeReplay(b)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if gotParts != c.parts || !slices.Equal(axis, c.axis) {
			t.Errorf("%s: replays at %d partition(s) checked over %v, want %d over %v", c.file, gotParts, axis, c.parts, c.axis)
		}
		want := direct(csp, c.parts)
		res, vs, err := replay(c.file)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if len(vs) > 0 {
			t.Fatalf("%s: %v", c.file, vs)
		}
		var got bytes.Buffer
		if err := res.EncodeJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: replay differs from a direct run\nreplay: %.300s\ndirect: %.300s", c.file, got.Bytes(), want)
		}
	}
}

func mustDecode(t *testing.T, raw []byte) *scenario.Spec {
	t.Helper()
	sp, err := scenario.DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}
