package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func sampleResult() *scenario.Result {
	r := &scenario.Result{Experiment: "incast", Scheme: scenario.PowerTCP, Seed: 7, Label: "demo"}
	r.SetScalar("peak_queue_kb", 42.5)
	r.SetScalar("avg_goodput_gbps", 23.125)
	r.AddSeries(scenario.Series{
		Name: "queue_kb", XLabel: "time_us",
		Points: []scenario.SeriesPoint{{X: 0, V: 1}, {X: 20, V: 2.5}},
	})
	return r
}

func TestResultJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back scenario.Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Experiment != "incast" || back.Scheme != scenario.PowerTCP || back.Seed != 7 {
		t.Fatalf("identity lost: %+v", back)
	}
	if back.Scalars["peak_queue_kb"] != 42.5 {
		t.Fatalf("scalars lost: %+v", back.Scalars)
	}
	if len(back.Series) != 1 || len(back.Series[0].Points) != 2 {
		t.Fatalf("series lost: %+v", back.Series)
	}
}

func TestResultTSVLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().EncodeTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# experiment=incast scheme=powertcp seed=7 label=demo",
		"avg_goodput_gbps\t23.125", // scalars sorted, so this precedes peak
		"peak_queue_kb\t42.5",
		"# series=queue_kb",
		"20\t2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("TSV missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "avg_goodput_gbps") > strings.Index(out, "peak_queue_kb") {
		t.Fatal("scalars not sorted")
	}
}
