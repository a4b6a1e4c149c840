package main

import (
	"flag"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
)

// experimentFlags is every flag that sets an experiment parameter, with
// a value its consumers accept. The rest of the flag set picks the mode,
// the scheme, the seed or the output format.
var experimentFlags = map[string]string{
	"fanin": "3", "load": "0.5", "servers": "4", "ms": "5", "parts": "2",
	"pktgbps": "50", "icrate": "100", "icmb": "3", "route": "wecmp",
	"failms": "1.5", "restorems": "4", "reconvms": "0.3", "flows": "2",
}

// msField is where -ms lands: the observation window of the experiments
// that have one, the workload horizon of websearch, nowhere on
// rdcn (whose horizon is Weeks).
var msField = map[string]string{
	"incast": "Window", "fairness": "Window", "permutation": "Window",
	"asymmetry": "Window", "failover": "Window",
	"websearch": "Duration", "rdcn": "",
}

func parseExperiment(t *testing.T, args ...string) (exp.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("powersim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return experimentSpec()
}

// TestExperimentRows walks every experiment × every experiment flag: a
// flag in the experiment's row reaches the preset field the row names,
// and any other is refused with an error naming the flag and the
// experiment (main exits 2 on it). Each row must account for exactly the
// exported fields of its preset struct, so a field cannot be added
// without deciding whether it gets a flag.
func TestExperimentRows(t *testing.T) {
	if got, want := len(expRows), len(exp.ExperimentNames()); got != want {
		t.Fatalf("%d rows for %d experiments", got, want)
	}
	for _, name := range exp.ExperimentNames() {
		row, ok := expRows[name]
		if !ok {
			t.Fatalf("experiment %q has no row", name)
		}
		defaults, err := parseExperiment(t, "-exp", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if defaults.Preset.Name() != name {
			t.Fatalf("row %q builds preset %q", name, defaults.Preset.Name())
		}
		typ := reflect.TypeOf(defaults.Preset)
		var fields, rowFields []string
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, typ.Field(i).Name)
		}
		flagField := map[string]string{}
		for field, fl := range row.flags {
			rowFields = append(rowFields, field)
			if fl != "" {
				flagField[fl] = field
			}
		}
		slices.Sort(fields)
		slices.Sort(rowFields)
		if !slices.Equal(fields, rowFields) {
			t.Errorf("%s: row lists %v, preset struct has %v", name, rowFields, fields)
		}
		if got := flagField["ms"]; got != msField[name] {
			t.Errorf("%s: -ms lands on %q, want %q", name, got, msField[name])
		}

		for fl, value := range experimentFlags {
			spec, err := parseExperiment(t, "-exp", name, "-"+fl, value)
			field, inRow := flagField[fl]
			if !inRow {
				if err == nil || !strings.Contains(err.Error(), "-"+fl) || !strings.Contains(err.Error(), name) {
					t.Errorf("-exp %s -%s %s: err = %v, want a refusal naming both", name, fl, value, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("-exp %s -%s %s: %v", name, fl, value, err)
				continue
			}
			was := reflect.ValueOf(defaults.Preset).FieldByName(field).Interface()
			now := reflect.ValueOf(spec.Preset).FieldByName(field).Interface()
			if reflect.DeepEqual(was, now) {
				t.Errorf("-exp %s -%s %s: preset field %s stayed %v", name, fl, value, field, was)
			}
		}
	}
	// Flags of the other modes are stray on an experiment run too.
	for _, fl := range []string{"-fidelity=fluid", "-seeds=5", "-deep"} {
		if _, err := parseExperiment(t, "-exp", "incast", fl); err == nil {
			t.Errorf("-exp incast %s accepted", fl)
		}
	}
	// Fig. 7a/7b's load sweep is a suite of websearch cells (figures
	// -fig 7), not an experiment.
	for _, name := range []string{"bogus", "load-sweep"} {
		if _, err := parseExperiment(t, "-exp", name); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: err = %v", name, err)
		}
	}
	if spec, err := parseExperiment(t, "-exp", "failover", "-restorems", "-1"); err != nil ||
		spec.Preset.(exp.Failover).RestoreAfter != exp.KeepLinkDown {
		t.Errorf("-restorems -1: %+v, %v, want KeepLinkDown", spec.Preset, err)
	}
}
