package main

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// expRow is one experiment's command line: flags names, per field of the
// experiment's preset struct, the flag that sets it ("" where the field
// has none and keeps its default), and preset builds the struct from the
// parsed flags. A flag outside the row is refused, so -ms lands on Window
// or on Duration because the row says so.
type expRow struct {
	flags  map[string]string
	preset func() exp.Preset
}

var expRows = map[string]expRow{
	"incast": {
		flags: map[string]string{"FanIn": "fanin", "ServersPerTor": "servers", "Partitions": "parts",
			"Window": "ms"},
		preset: func() exp.Preset {
			return exp.Incast{FanIn: *fanInFlag, ServersPerTor: *serversFlag,
				Partitions: *partsFlag, Window: sim.Millis(*durFlag)}
		},
	},
	"fairness": {
		flags: map[string]string{"Flows": "flows", "Window": "ms"},
		preset: func() exp.Preset {
			return exp.Fairness{Flows: *flowsFlag, Window: sim.Millis(*durFlag)}
		},
	},
	"websearch": {
		flags: map[string]string{"ServersPerTor": "servers", "Load": "load", "IncastRate": "icrate",
			"IncastSize": "icmb", "SampleBuffers": "", "Duration": "ms", "Drain": ""},
		preset: func() exp.Preset {
			return exp.WebSearch{ServersPerTor: *serversFlag, Load: *loadFlag,
				IncastRate: *icRateFlag, IncastSize: *icSizeFlag << 20,
				SampleBuffers: true, Duration: sim.Millis(*durFlag)}
		},
	},
	"rdcn": {
		flags: map[string]string{"Tors": "", "ServersPerTor": "servers", "PacketRate": "pktgbps",
			"Weeks": ""},
		preset: func() exp.Preset {
			return exp.RDCN{ServersPerTor: *serversFlag, PacketRate: units.BitRate(*pktGbps) * units.Gbps}
		},
	},
	"permutation": {
		flags: map[string]string{"ServersPerTor": "servers", "Partitions": "parts", "Routing": "route",
			"Window": "ms"},
		preset: func() exp.Preset {
			return exp.Permutation{ServersPerTor: *serversFlag, Partitions: *partsFlag,
				Routing: *routeFlag, Window: sim.Millis(*durFlag)}
		},
	},
	"asymmetry": {
		flags: map[string]string{"ServersPerTor": "servers", "Routing": "route", "Window": "ms"},
		preset: func() exp.Preset {
			return exp.Asymmetry{ServersPerTor: *serversFlag, Routing: *routeFlag, Window: sim.Millis(*durFlag)}
		},
	},
	"failover": {
		flags: map[string]string{"ServersPerTor": "servers", "Partitions": "parts", "Flows": "flows",
			"Routing": "route", "FailAfter": "failms", "RestoreAfter": "restorems", "Reconverge": "reconvms",
			"Window": "ms"},
		preset: func() exp.Preset {
			restore := sim.Millis(*restoreMs)
			if *restoreMs < 0 {
				restore = exp.KeepLinkDown
			}
			return exp.Failover{ServersPerTor: *serversFlag, Partitions: *partsFlag, Flows: *flowsFlag,
				Routing: *routeFlag, FailAfter: sim.Millis(*failMsFlag), RestoreAfter: restore,
				Reconverge: sim.Millis(*reconvMs), Window: sim.Millis(*durFlag)}
		},
	},
}

// experimentSpec turns the parsed flags into the -exp run. A flag the
// experiment's row does not list is an error, not a silently ignored
// knob.
func experimentSpec() (exp.Spec, error) {
	row, ok := expRows[*expFlag]
	if !ok {
		return exp.Spec{}, fmt.Errorf("unknown experiment %q (known: %s)",
			*expFlag, strings.Join(exp.ExperimentNames(), ", "))
	}
	var own []string
	for _, name := range row.flags {
		if name != "" {
			own = append(own, "-"+name)
		}
	}
	slices.Sort(own)
	allowed := []string{"-exp", "-scheme", "-seed", "-gamma", "-alpha", "-json", "-tsv"}
	if stray := strayFlags(append(allowed, own...)...); len(stray) > 0 {
		return exp.Spec{}, fmt.Errorf("experiment %q does not consume %s (its flags: %s)",
			*expFlag, strings.Join(stray, ", "), strings.Join(own, ", "))
	}
	var schemeOpts []scenario.SchemeOption
	if *gammaFlag > 0 {
		schemeOpts = append(schemeOpts, scenario.Gamma(*gammaFlag))
	}
	if *alphaFlag > 0 {
		schemeOpts = append(schemeOpts, scenario.Alpha(*alphaFlag))
	}
	return exp.Spec{Preset: row.preset(), Scheme: *schemeFlag, SchemeOpts: schemeOpts, Seed: *seedFlag}, nil
}
