package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// SeriesPoint is one (x, value) sample of a Series.
type SeriesPoint struct {
	X float64 `json:"x"`
	V float64 `json:"v"`
}

// Series is a named data series of a Result — a time series (X in
// microseconds), a CDF (X in bytes or KB), or a sweep (X a load or
// rate), as named by the XLabel.
type Series struct {
	Name   string        `json:"name"`
	XLabel string        `json:"x_label,omitempty"`
	Points []SeriesPoint `json:"points"`
}

// Result is the whole result of a run: identity (experiment, scheme,
// label, seed), a scalar metrics map, and named series. Every number a
// figure prints is one of its scalars or series, so the JSON encoding
// (a golden file, a powersimd reply) redraws the figure as well as the
// in-process value does.
type Result struct {
	Experiment string             `json:"experiment"`
	Scheme     string             `json:"scheme"`
	Label      string             `json:"label,omitempty"`
	Seed       int64              `json:"seed"`
	Scalars    map[string]float64 `json:"scalars,omitempty"`
	Series     []Series           `json:"series,omitempty"`
}

// SetScalar records one headline metric.
func (r *Result) SetScalar(name string, v float64) {
	if r.Scalars == nil {
		r.Scalars = map[string]float64{}
	}
	r.Scalars[name] = v
}

// Scalar returns a recorded metric (0 if absent).
func (r *Result) Scalar(name string) float64 { return r.Scalars[name] }

// Lookup returns a recorded metric, or an error naming the experiment,
// the scheme and the missing key: a renderer that reads a renamed
// metric must stop, not print a 0.
func (r *Result) Lookup(name string) (float64, error) {
	if v, ok := r.Scalars[name]; ok {
		return v, nil
	}
	return 0, r.missing("scalar", name)
}

// SeriesNamed returns the named series, or an error like Lookup's.
func (r *Result) SeriesNamed(name string) (Series, error) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, nil
		}
	}
	return Series{}, r.missing("series", name)
}

func (r *Result) missing(kind, name string) error {
	return fmt.Errorf("experiment %q scheme %q has no %s %q", r.Experiment, r.Scheme, kind, name)
}

// ScalarNames returns the recorded metric names, sorted.
func (r *Result) ScalarNames() []string {
	names := make([]string, 0, len(r.Scalars))
	for n := range r.Scalars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddSeries appends a named series.
func (r *Result) AddSeries(s Series) { r.Series = append(r.Series, s) }

// TimeSeries builds a Series from parallel time/value slices, with X in
// microseconds — the repo's common plot axis.
func TimeSeries(name string, t []sim.Time, v []float64) Series {
	s := Series{Name: name, XLabel: "time_us", Points: make([]SeriesPoint, len(v))}
	for i := range v {
		s.Points[i] = SeriesPoint{X: t[i].Seconds() * 1e6, V: v[i]}
	}
	return s
}

// EncodeJSON writes the result as indented JSON. Map keys are sorted by
// encoding/json, so equal results encode to identical bytes — the
// property the suite determinism test asserts.
func (r *Result) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// EncodeTSV writes the result as tab-separated blocks with '#' comment
// headers: one scalars block, then one block per series. The layout is
// gnuplot/matplotlib friendly and byte-deterministic (scalars sorted).
func (r *Result) EncodeTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# experiment=%s scheme=%s seed=%d", r.Experiment, r.Scheme, r.Seed); err != nil {
		return err
	}
	if r.Label != "" {
		if _, err := fmt.Fprintf(w, " label=%s", r.Label); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if len(r.Scalars) > 0 {
		if _, err := fmt.Fprintln(w, "# metric\tvalue"); err != nil {
			return err
		}
		for _, name := range r.ScalarNames() {
			if _, err := fmt.Fprintf(w, "%s\t%g\n", name, r.Scalars[name]); err != nil {
				return err
			}
		}
	}
	for _, s := range r.Series {
		x := s.XLabel
		if x == "" {
			x = "x"
		}
		if _, err := fmt.Fprintf(w, "\n# series=%s\n# %s\t%s\n", s.Name, x, s.Name); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%g\t%g\n", p.X, p.V); err != nil {
				return err
			}
		}
	}
	return nil
}
