package scenario

import (
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
