package scenario_test

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fuzzlab"
	"repro/internal/scenario"
)

// The one-pass encoder is held against the round trip it replaced
// (MarshalCanonicalOracle, export_test.go): for every Spec below, the
// bytes and the key are the oracle's, or both refuse.

func sameAsOracle(t *testing.T, what string, sp *scenario.Spec) {
	t.Helper()
	want, wantErr := scenario.MarshalCanonicalOracle(sp)
	got, err := scenario.MarshalCanonical(sp)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: encoder error %v, oracle error %v", what, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: canonical bytes differ from the oracle's:\n got %s\nwant %s", what, got, want)
	}
	for _, parts := range []int{1, 4} {
		wantKey, wantErr := scenario.SpecKeyOracle(sp, sp.Seed, parts)
		key, err := scenario.SpecKey(sp, sp.Seed, parts)
		if (err != nil) != (wantErr != nil) || key != wantKey {
			t.Fatalf("%s parts %d: key %q (%v), oracle %q (%v)", what, parts, key, err, wantKey, wantErr)
		}
	}
}

func TestCanonicalMatchesOraclePresets(t *testing.T) {
	for _, sp := range scenario.SpecPresets() {
		for _, seed := range []int64{0, 1, -5, 1<<62 + 12345} {
			sp.Seed = seed
			sameAsOracle(t, sp.Name, &sp)
		}
		// json.Marshal's contract, which the benchmark's live heap leans
		// on: the slice holds its bytes and no scratch behind them (64 is
		// the allocator's rounding at this size).
		if b, _ := scenario.MarshalCanonical(&sp); cap(b) > len(b)+64 {
			t.Fatalf("%s: MarshalCanonical returned %d bytes in a %d-byte slice", sp.Name, len(b), cap(b))
		}
		// An in-memory spec without a version is written at the current
		// one, and left as it was.
		sp.V = 0
		sameAsOracle(t, sp.Name+" v0", &sp)
		if sp.V != 0 {
			t.Fatalf("%s: canonicalizing wrote the caller's V", sp.Name)
		}
	}
	foreign := scenario.SpecPresets()[0]
	foreign.V = scenario.SpecVersion + 1
	sameAsOracle(t, "foreign version", &foreign)
	if _, err := scenario.MarshalCanonical(&foreign); err == nil {
		t.Fatal("foreign version canonicalized")
	}
}

func TestCanonicalMatchesOracleGenerated(t *testing.T) {
	for seed := int64(0); seed < 5000; seed++ {
		sp := fuzzlab.Generate(seed)
		sameAsOracle(t, sp.Name, &sp)
	}
}

// fill sets every field reachable from v to a distinct non-zero value:
// two elements in each slice, a fresh value behind each pointer.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString("s" + strings.Repeat("x", *n%5))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), n)
		fill(t, v.Index(1), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	default:
		t.Fatalf("the Spec vocabulary has grown a %s: teach fill and the encoder's plan about it", v.Type())
	}
}

// TestCanonicalEveryField: a field the plan forgot, wrote under another
// name or in another place fails here and not in a cache.
func TestCanonicalEveryField(t *testing.T) {
	var sp scenario.Spec
	n := 0
	fill(t, reflect.ValueOf(&sp).Elem(), &n)
	sp.V = scenario.SpecVersion
	sameAsOracle(t, "every field set", &sp)
	if n < 100 {
		t.Fatalf("fill reached %d values, want the whole vocabulary (> 100)", n)
	}
	// And with nothing set, where every omitempty applies.
	sameAsOracle(t, "zero spec", &scenario.Spec{})
}

func TestCanonicalHostileStrings(t *testing.T) {
	for _, s := range []string{
		"", "plain", `<script>&amp;</script>`, `quo"te`, `back\slash`, "tab\tnl\ncr\rbs\bff\f\x00\x1f", "del\x7f",
		"\u2028\u2029", "naïve 日本語 🙂", "\ufffd", "\xff", "a\xc3", "\xc3(", "\xed\xa0\x80", "ok\xf0\x9f\x99", "\xfe\xff<",
	} {
		sp := scenario.SpecPresets()[0]
		sp.Name, sp.Scheme = s, "x"+s
		sp.Topo.Routing = s + "y"
		sp.Traffic[0].Override = s
		sameAsOracle(t, "string "+s, &sp)
	}
	// The rule canonical.go states: a byte that is not valid UTF-8 is a
	// literal U+FFFD in the bytes, never the six-character escape.
	sp := scenario.SpecPresets()[0]
	sp.Name = "a\xffb"
	got, err := scenario.MarshalCanonical(&sp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte("\"a\xef\xbf\xbdb\"")) || bytes.Contains(got, []byte(`\ufffd`)) {
		t.Fatalf("invalid UTF-8 not written as a literal U+FFFD: %q", got)
	}
}

func TestCanonicalFloats(t *testing.T) {
	sp := scenario.SpecPresets()[0]
	sp.Traffic = []scenario.TrafficSpec{{Kind: "poisson"}}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 0.1, 0.85, 100, 1e6, 123456789.125, 1.0 / 3,
		1e-6, 0.000001234, 9.99e-7, 1e-7, 1e-9, 1.5e-10, 5e-324, // exponent form below 1e-6; e-09 is written e-9
		1e20, 999999999999999868928, 1e21, 1.5e21, 1e100, math.MaxFloat64, // and from 1e21
	} {
		for _, f := range []float64{f, -f} {
			sp.Traffic[0].Load, sp.Traffic[0].RequestRate = f, f/3
			sameAsOracle(t, "float", &sp)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sp.Traffic[0].Load = f
		sameAsOracle(t, "non-finite float", &sp)
		if _, err := scenario.SpecKey(&sp, 1, 1); err == nil {
			t.Fatalf("a spec carrying %v got a key", f)
		}
	}
}

// TestCanonicalNilAgainstEmpty: "traffic" has no omitempty, so nil is
// null and empty is []; "events", "flows" and "sizes" are left out
// either way.
func TestCanonicalNilAgainstEmpty(t *testing.T) {
	base := scenario.SpecPresets()[0]
	var keys []string
	for _, empty := range []bool{false, true} {
		sp := base
		sp.Traffic, sp.Events = nil, nil
		if empty {
			sp.Traffic, sp.Events = []scenario.TrafficSpec{}, []scenario.EventSpec{}
		}
		sameAsOracle(t, "traffic and events", &sp)
		sp.Traffic = []scenario.TrafficSpec{{Kind: "flows"}, {Kind: "staggered"}}
		if empty {
			sp.Traffic[0].Flows, sp.Traffic[1].Sizes = []scenario.FlowEntry{}, []int64{}
		}
		sameAsOracle(t, "flows and sizes", &sp)
		key, err := scenario.SpecKey(&sp, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	if keys[0] != keys[1] {
		t.Fatal("nil and empty flows/sizes, both left out of the bytes, have different keys")
	}
}

// TestSpecKeyAllocations is the ceiling on what the key costs a request:
// 1, the key string. The bytes are built and hashed in a buffer on the
// stack, which stays there only while the encoder threads it by value
// (through a pointer it escaped and made a second, 1 KB allocation).
// Nothing is pooled, so the race detector's dropped sync.Pool Puts do
// not move it.
func TestSpecKeyAllocations(t *testing.T) {
	for _, sp := range scenario.SpecPresets() {
		if got := testing.AllocsPerRun(100, func() { scenario.SpecKey(&sp, sp.Seed, 1) }); got > 1 {
			t.Errorf("%s: SpecKey makes %.0f allocations a call, ceiling 1", sp.Name, got)
		}
	}
}

// TestSpecKeyOf: the key is SpecKey's, and canonical holds for exactly
// the canonical bytes, not for another spelling of the same spec.
func TestSpecKeyOf(t *testing.T) {
	for _, sp := range scenario.SpecPresets() {
		canon, err := scenario.MarshalCanonical(&sp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scenario.SpecKey(&sp, sp.Seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		spaced := append([]byte(" "), canon...)
		for _, tc := range []struct {
			body []byte
			want bool
		}{{canon, true}, {spaced, false}, {canon[:len(canon)-1], false}, {nil, false}} {
			key, ok, err := scenario.SpecKeyOf(&sp, sp.Seed, 2, tc.body)
			if err != nil || key != want || ok != tc.want {
				t.Errorf("%s: SpecKeyOf(%.20q…) = %s, %v, %v; want %s, %v", sp.Name, tc.body, key, ok, err, want, tc.want)
			}
		}
	}
}
