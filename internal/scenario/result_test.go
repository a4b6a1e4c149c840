package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// buildResult populates a Result with scalars inserted in the given
// order; the encoded bytes must not depend on it.
func buildResult(names []string) *Result {
	r := &Result{Experiment: "incast", Scheme: "powertcp", Seed: 7, Label: "demo"}
	for i, n := range names {
		r.SetScalar(n, float64(i)*1.5+0.25)
	}
	r.AddSeries(Series{
		Name: "queue_kb", XLabel: "time_us",
		Points: []SeriesPoint{{X: 0, V: 1}, {X: 20, V: 2.5}},
	})
	return r
}

// TestResultEncodingByteDeterministic is the regression test behind the
// resultorder analyzer: encoding the same Result twice — and encoding
// two Results whose scalar maps were populated in different orders —
// must produce identical bytes, for both encoders. A map-ordering leak
// in either encoder shows up here without needing a full golden run.
func TestResultEncodingByteDeterministic(t *testing.T) {
	forward := buildResult([]string{"avg_goodput_gbps", "engine_steps", "peak_queue_kb", "p99_fct_us"})
	// Same scalars, reversed insertion order: the map's internal layout
	// (and therefore its iteration order) differs.
	backward := buildResult([]string{"p99_fct_us", "peak_queue_kb", "engine_steps", "avg_goodput_gbps"})
	// Note buildResult derives values from insertion position; align them.
	for n := range backward.Scalars {
		backward.Scalars[n] = forward.Scalars[n]
	}

	type encoder struct {
		name   string
		encode func(*Result, *bytes.Buffer) error
	}
	encoders := []encoder{
		{"json", func(r *Result, b *bytes.Buffer) error { return r.EncodeJSON(b) }},
		{"tsv", func(r *Result, b *bytes.Buffer) error { return r.EncodeTSV(b) }},
	}
	for _, enc := range encoders {
		var first, second, other bytes.Buffer
		if err := enc.encode(forward, &first); err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		if err := enc.encode(forward, &second); err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		if err := enc.encode(backward, &other); err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: encoding the same Result twice produced different bytes", enc.name)
		}
		if !bytes.Equal(first.Bytes(), other.Bytes()) {
			t.Errorf("%s: scalar insertion order leaked into the encoding:\n%s\nvs\n%s",
				enc.name, first.Bytes(), other.Bytes())
		}
	}
}

// TestResultLookup: a present key returns its value; a missing one is an
// error that names the experiment, the scheme and the key.
func TestResultLookup(t *testing.T) {
	r := buildResult([]string{"peak_queue_kb", "engine_steps"})
	if v, err := r.Lookup("engine_steps"); err != nil || v != 1.75 {
		t.Fatalf("Lookup(engine_steps) = %v, %v; want 1.75", v, err)
	}
	if s, err := r.SeriesNamed("queue_kb"); err != nil || len(s.Points) != 2 || s.Points[1].V != 2.5 {
		t.Fatalf("SeriesNamed(queue_kb) = %+v, %v", s, err)
	}
	_, errScalar := r.Lookup("peak_queue")
	_, errSeries := r.SeriesNamed("queue")
	for _, c := range []struct {
		err error
		key string
	}{{errScalar, "peak_queue"}, {errSeries, "queue"}} {
		if c.err == nil {
			t.Fatalf("missing key %q returned no error", c.key)
		}
		for _, want := range []string{"incast", "powertcp", `"` + c.key + `"`} {
			if !strings.Contains(c.err.Error(), want) {
				t.Errorf("error %q does not name %s", c.err, want)
			}
		}
	}
}
