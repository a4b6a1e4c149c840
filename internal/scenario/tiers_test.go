package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Each of the Spec's six switch tiers decodes to its SwitchRef and
// resolves through a LinkFail on a fabric that has that tier; an unknown
// tier and a tier of another fabric are rejected.
func TestSpecSwitchTiers(t *testing.T) {
	const (
		leafSpine = `{"kind":"leafspine","leaves":2,"spines":2,"servers_per_leaf":2}`
		fatTree   = `{"kind":"fattree","servers_per_tor":1}` // 8 ToRs, 8 aggregation, 4 core
	)
	cases := []struct {
		name, topo, a, b string
		wantA, wantB     SwitchRef
		wantErr          string
	}{
		{"leaf-spine", leafSpine, `{"tier":"leaf","i":1}`, `{"tier":"spine","i":0}`, Leaf(1), Spine(0), ""},
		{"tor-agg", fatTree, `{"tier":"tor","i":0}`, `{"tier":"agg","i":0}`, Tor(0), Agg(0), ""},
		{"agg-core", fatTree, `{"tier":"agg","i":0}`, `{"tier":"core","i":1}`, Agg(0), Core(1), ""},
		{"index", fatTree, `{"tier":"index","i":0}`, `{"tier":"index","i":8}`, SwitchIndex(0), SwitchIndex(8), ""},
		{"unknown tier", leafSpine, `{"tier":"pod","i":0}`, `{"tier":"spine","i":0}`, SwitchRef{}, SwitchRef{}, `unknown switch tier "pod"`},
		{"wrong fabric", leafSpine, `{"tier":"tor","i":0}`, `{"tier":"spine","i":0}`, SwitchRef{}, SwitchRef{}, "not valid on a leaf-spine"},
		{"unset", leafSpine, `null`, `{"tier":"spine","i":0}`, SwitchRef{}, SwitchRef{}, "unset switch reference"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"v":2,"name":"tiers","seed":1,"scheme":"powertcp","horizon_us":40,"topo":%s,`+
				`"traffic":[{"kind":"flows","flows":[{"src":{"kind":"host"},"dst":{"kind":"host","i":1},"size":10000}]}],`+
				`"events":[{"kind":"fail","at_us":10,"a":%s,"b":%s}]}`, c.topo, c.a, c.b)
			sp, err := DecodeSpec([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sp.Build(1)
			if err == nil && c.wantErr == "" {
				if got := sc.Events.Events; len(got) != 1 || got[0] != (LinkFail{At: 10 * sim.Microsecond, A: c.wantA, B: c.wantB}) {
					t.Fatalf("decoded %+v, want one LinkFail %+v–%+v at 10µs", got, c.wantA, c.wantB)
				}
			}
			if err == nil {
				_, err = Run(sc)
			}
			if c.wantErr == "" && err != nil {
				t.Fatal(err)
			}
			if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Fatalf("err = %v, want one naming %q", err, c.wantErr)
			}
		})
	}
}

// Each of the Spec's four host-reference kinds decodes to its
// constructor's HostRef and resolves to that host on a fat-tree; each
// constructor marshals to the bytes HostRef documents; an unknown kind
// and a flows entry without a source are rejected.
func TestSpecHostRefs(t *testing.T) {
	for _, c := range []struct {
		ref  HostRef
		want string
	}{
		{Host(0), `{"kind":"host"}`},
		{Host(3), `{"kind":"host","i":3}`},
		{HostFromEnd(1), `{"kind":"from_end","i":1}`},
		{RackStart(2), `{"kind":"rack_start","rack":2}`},
		{RackHost(5, 1), `{"kind":"rack_host","rack":5,"i":1}`},
	} {
		if got, err := json.Marshal(c.ref); err != nil || string(got) != c.want {
			t.Errorf("json.Marshal(%+v) = %s, %v; want %s", c.ref, got, err, c.want)
		}
	}

	const fatTree = `{"kind":"fattree","servers_per_tor":2}` // 8 ToRs of 2 servers: 16 hosts
	cases := []struct {
		name, src string // src is the flows entry's source field, empty for none
		want      HostRef
		wantHost  int
		wantErr   string
	}{
		{"host", `,"src":{"kind":"host","i":3}`, Host(3), 3, ""},
		{"from_end", `,"src":{"kind":"from_end","i":1}`, HostFromEnd(1), 15, ""},
		{"rack_start", `,"src":{"kind":"rack_start","rack":2}`, RackStart(2), 4, ""},
		{"rack_host", `,"src":{"kind":"rack_host","rack":5,"i":1}`, RackHost(5, 1), 11, ""},
		{"unknown kind", `,"src":{"kind":"pod","i":1}`, HostRef{}, 0, `unknown host reference kind "pod"`},
		{"no src", ``, HostRef{}, 0, "unset host reference"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"v":2,"name":"refs","seed":1,"scheme":"powertcp","horizon_us":40,"topo":%s,`+
				`"traffic":[{"kind":"flows","flows":[{"dst":{"kind":"host"}%s,"size":10000}]}]}`, fatTree, c.src)
			sp, err := DecodeSpec([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sp.Build(1)
			if err == nil && c.wantErr == "" {
				if got := sc.Traffic[0].(Flows).List[0].Src; got != c.want {
					t.Fatalf("decoded %+v, want %+v", got, c.want)
				}
			}
			var p *Prepared
			if err == nil {
				p, err = Prepare(sc)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			if got := p.Env().Launched[0].Src; got != c.wantHost {
				t.Fatalf("resolved to host %d, want %d", got, c.wantHost)
			}
		})
	}
}
