package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPresetGoldens pins the canonical bytes and SpecKey of every
// experiment preset under testdata/canonical/. The pins are the drift
// alarm for the content-addressed cache: any change to the Spec struct,
// its tags, or the canonicalization algorithm shows up here as a byte
// diff, forcing an explicit decision (bump SpecVersion, regenerate with
// POWERTCP_UPDATE_GOLDEN=1) instead of silently remapping every cache
// key in the wild.
func TestPresetGoldens(t *testing.T) {
	update := os.Getenv("POWERTCP_UPDATE_GOLDEN") != ""
	dir := filepath.Join("testdata", "canonical")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	presets := SpecPresets()
	if len(presets) != 9 {
		t.Fatalf("got %d presets, want one per registered experiment plus the hybrid preset (9)", len(presets))
	}
	for _, sp := range presets {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			canon, err := MarshalCanonical(&sp)
			if err != nil {
				t.Fatal(err)
			}
			key, err := SpecKey(&sp, sp.Seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			// The preset must be a valid run input, not just valid JSON.
			if _, err := sp.Build(1); err != nil {
				t.Fatalf("preset does not build: %v", err)
			}
			got := []byte(fmt.Sprintf("%s\n%s\n", key, canon))
			path := filepath.Join(dir, sp.Name+".golden")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with POWERTCP_UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("canonical encoding drifted for %q:\n got %s\nwant %s\nIf intentional, bump SpecVersion and regenerate goldens.",
					sp.Name, got, want)
			}
		})
	}
}

// TestCanonicalRoundTrip: canonical bytes survive decode→re-encode
// unchanged, and key order is sorted regardless of struct declaration
// order.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, sp := range SpecPresets() {
		sp := sp
		canon, err := MarshalCanonical(&sp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(canon)
		if err != nil {
			t.Fatalf("%s: canonical bytes do not decode: %v", sp.Name, err)
		}
		again, err := MarshalCanonical(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, again) {
			t.Fatalf("%s: canonical encode not a fixed point:\n first %s\nsecond %s", sp.Name, canon, again)
		}
		if bytes.Contains(canon, []byte("\n")) || bytes.Contains(canon, []byte(": ")) {
			t.Fatalf("%s: canonical form is not compact: %s", sp.Name, canon)
		}
	}
}

// TestCanonicalSeedPrecision: seeds above 2^53 survive encode and decode
// exactly (written as integers, never through a float64).
func TestCanonicalSeedPrecision(t *testing.T) {
	sp := SpecPresets()[0]
	sp.Seed = (1 << 62) + 12345
	canon, err := MarshalCanonical(&sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(canon)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != sp.Seed {
		t.Fatalf("seed corrupted by canonicalization: %d → %d", sp.Seed, back.Seed)
	}
}

// TestDecodeSpecStrict: unknown fields, foreign versions, and trailing
// documents are rejected; a missing version is normalized to current.
func TestDecodeSpecStrict(t *testing.T) {
	base := `{"seed":1,"scheme":"powertcp","topo":{"kind":"star","hosts":4},"traffic":[{"kind":"permutation"}],"horizon_us":100}`
	sp, err := DecodeSpec([]byte(base))
	if err != nil {
		t.Fatalf("pre-versioning document rejected: %v", err)
	}
	if sp.V != SpecVersion {
		t.Fatalf("missing version normalized to %d, want %d", sp.V, SpecVersion)
	}
	for name, doc := range map[string]string{
		"unknown field":   `{"v":1,"seed":1,"scheme":"powertcp","topo":{"kind":"star"},"horizon_us":1,"bogus":true}`,
		"unknown nested":  `{"v":1,"seed":1,"scheme":"powertcp","topo":{"kind":"star","racks":2},"horizon_us":1}`,
		"foreign version": `{"v":99,"seed":1,"scheme":"powertcp","topo":{"kind":"star"},"horizon_us":1}`,
		"trailing data":   base + `{"v":1}`,
	} {
		if _, err := DecodeSpec([]byte(doc)); err == nil {
			t.Errorf("%s accepted, want error", name)
		}
	}
}

// TestDecodeSpecRejectsUnknownScheme: a scheme outside the table is a
// decoding error, so powersimd answers it 400 before any run; the two
// parameterized families decode.
func TestDecodeSpecRejectsUnknownScheme(t *testing.T) {
	for scheme, wantErr := range map[string]string{
		"swift":     "unknown scheme",
		"cubic":     "unknown scheme",
		"homa-ocx":  "malformed HOMA",
		"homa-oc3":  "",
		"retcp-600": "",
	} {
		doc := `{"v":2,"seed":1,"scheme":"` + scheme + `","topo":{"kind":"star","hosts":4},"horizon_us":100}`
		_, err := DecodeSpec([]byte(doc))
		if (wantErr == "" && err != nil) || (wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr))) {
			t.Errorf("scheme %q: err = %v, want %q", scheme, err, wantErr)
		}
	}
}

// TestSpecKeyDiscriminates: the run identity hash separates spec, seed,
// and partition count.
func TestSpecKeyDiscriminates(t *testing.T) {
	sp := SpecPresets()[0]
	k1, err := SpecKey(&sp, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := SpecKey(&sp, 2, 1)
	k3, _ := SpecKey(&sp, 1, 2)
	other := sp
	other.HorizonUS++
	k4, _ := SpecKey(&other, 1, 1)
	seen := map[string]string{k1: "base"}
	for name, k := range map[string]string{"seed": k2, "parts": k3, "spec": k4} {
		if prev, dup := seen[k]; dup {
			t.Errorf("SpecKey collision between %s and %s variants", prev, name)
		}
		seen[k] = name
	}
	again, _ := SpecKey(&sp, 1, 1)
	if again != k1 {
		t.Errorf("SpecKey not stable: %s vs %s", k1, again)
	}
}
