// Command figures regenerates the data behind every figure of the
// paper's evaluation. Output is tab-separated with '#' comment headers,
// one block per figure panel, suitable for gnuplot/matplotlib.
//
// Each figure builds its panels as experiment specs and executes them as
// one suite over a GOMAXPROCS-sized worker pool; rendering then walks
// the results in panel order, so the output is identical to a serial run
// (every simulation owns an isolated engine and is deterministic per
// seed).
//
// Usage:
//
//	figures -fig 4            # one figure (2,3,4,5,6,7,8,9,mp,theory,gamma)
//	figures -fig gamma        # the §3.3 γ parameter study
//	figures -fig all          # everything, in that order, across all cores
//	figures -fig 6 -full      # paper-scale topology (much slower)
//	figures -workers 4        # cap the worker pool
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

var (
	figFlag     = flag.String("fig", "all", "figure to regenerate: 2,3,4,5,6,7,8,9,mp,theory,gamma,all")
	fullFlag    = flag.Bool("full", false, "paper-scale topology (256 servers / 25 ToRs); slow")
	seedFlag    = flag.Int64("seed", 1, "base RNG seed")
	workersFlag = flag.Int("workers", 0, "suite worker pool size (0 = GOMAXPROCS)")
)

// figure is one -fig case.
type figure struct {
	name string
	run  func()
}

// figures lists every -fig case in the order -fig all prints them. A
// case appended here leaves the bytes of every earlier one unchanged.
var figures = []figure{
	{"2", fig2}, {"3", fig3}, {"4", fig4}, {"5", fig5}, {"6", fig6}, {"7", fig7},
	{"8", fig8}, {"9", fig9}, {"mp", figMultipath}, {"theory", theory}, {"gamma", gamma},
}

func main() {
	flag.Parse()
	ran := false
	for _, f := range figures {
		if *figFlag == "all" || *figFlag == f.name {
			f.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
}

// runSuite executes the specs over the worker pool and dies loudly on
// misconfigured panels.
func runSuite(specs []exp.Spec) []*scenario.Result {
	suite := exp.Suite{Specs: specs, Workers: *workersFlag}
	results, err := suite.Run()
	check(err)
	return results
}

// scalar and series read a panel's numbers by name. A missing key exits
// 1 naming the experiment, scheme and key: a renamed metric must stop
// the run, not print a 0.
func scalar(r *scenario.Result, name string) float64 {
	v, err := r.Lookup(name)
	check(err)
	return v
}

func series(r *scenario.Result, name string) []scenario.SeriesPoint {
	s, err := r.SeriesNamed(name)
	check(err)
	return s.Points
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// spec is one panel cell: a preset under a scheme at the base seed.
func spec(p exp.Preset, scheme string) exp.Spec {
	return exp.Spec{Preset: p, Scheme: scheme, Seed: *seedFlag}
}

// serversPerTor picks the fat-tree scale.
func serversPerTor() int {
	if *fullFlag {
		return 32 // 256 servers, the paper's §4.1 fabric
	}
	return 8
}

func rdcnScale() (tors, servers, weeks int) {
	if *fullFlag {
		return 25, 10, 4
	}
	return 16, 4, 3
}

func sys(law fluid.Law) *fluid.System {
	return &fluid.System{
		B: 100 * units.Gbps, Tau: 20 * sim.Microsecond,
		Gamma: 0.9, Dt: 10 * sim.Microsecond, Beta: 12_500, Law: law,
	}
}

func fig2() {
	s := sys(fluid.Voltage)
	b := (100 * units.Gbps).BytesPerSec()
	fmt.Println("# Figure 2a: multiplicative decrease vs queue buildup rate (q=25 pkts)")
	fmt.Println("# rate_x_bandwidth\tvoltage_md\tcurrent_md\tpower_md")
	q := 25.0 * 1048
	for r := 0.0; r <= 8; r += 0.5 {
		fmt.Printf("%.1f\t%.3f\t%.3f\t%.3f\n", r,
			sys(fluid.Voltage).MDResponse(q, r*b),
			sys(fluid.Current).MDResponse(q, r*b),
			sys(fluid.Power).MDResponse(q, r*b))
	}
	fmt.Println("\n# Figure 2b: multiplicative decrease vs queue length (q̇ = 2b)")
	fmt.Println("# queue_pkts\tvoltage_md\tcurrent_md\tpower_md")
	for pkts := 0; pkts <= 60; pkts += 4 {
		q := float64(pkts) * 1048
		fmt.Printf("%d\t%.3f\t%.3f\t%.3f\n", pkts,
			sys(fluid.Voltage).MDResponse(q, 2*b),
			sys(fluid.Current).MDResponse(q, 2*b),
			sys(fluid.Power).MDResponse(q, 2*b))
	}
	fmt.Println("\n# Figure 2c: the three indistinguishable cases")
	fmt.Println("# case\tvoltage_md\tcurrent_md\tpower_md")
	for _, c := range s.Fig2cCases() {
		fmt.Printf("%s\t%.2f\t%.2f\t%.2f\n", c.Name, c.VoltageMD, c.CurrentMD, c.PowerMD)
	}
	fmt.Println()
}

func fig3() {
	fmt.Println("# Figure 3: phase-plot trajectories (window vs inflight, packets)")
	fmt.Println("# law\ttraj\tstep\twindow_pkts\tinflight_pkts")
	inits := []fluid.State{
		{W: 20 * 1048, Q: 0},
		{W: 500 * 1048, Q: 100 * 1048},
		{W: 1000 * 1048, Q: 300 * 1048},
		{W: 2000 * 1048, Q: 0},
	}
	for _, law := range []fluid.Law{fluid.Voltage, fluid.Current, fluid.Power} {
		s := sys(law)
		for ti, st0 := range inits {
			tr := s.Trajectory(st0, 2e-6, 1500)
			for i := 0; i < len(tr); i += 25 {
				fmt.Printf("%v\t%d\t%d\t%.1f\t%.1f\n", law, ti, i,
					tr[i].W/1048, s.Inflight(tr[i])/1048)
			}
		}
	}
	fmt.Println()
}

func fig4() {
	schemes := []string{scenario.PowerTCP, scenario.ThetaPowerTCP, scenario.Timely, scenario.HPCC, scenario.Homa}
	var specs []exp.Spec
	for _, fanIn := range []int{10, 255} {
		spt := serversPerTor()
		if fanIn >= 255 {
			spt = 32 // need 256 servers for the full-cluster incast
		}
		for _, sc := range schemes {
			specs = append(specs, spec(exp.Incast{FanIn: fanIn, ServersPerTor: spt}, sc))
		}
	}
	results := runSuite(specs)
	for i, s := range specs {
		r := results[i]
		fmt.Printf("# Figure 4 (%d:1) %s: peak=%.0fKB end=%.0fKB avg=%.1fGbps done=%d/%d\n",
			s.Preset.(exp.Incast).FanIn, r.Scheme, scalar(r, "peak_queue_kb"), scalar(r, "end_queue_kb"),
			scalar(r, "avg_goodput_gbps"), int(scalar(r, "completed")), int(scalar(r, "fan_in")))
		fmt.Println("# time_ms\tthroughput_gbps\tqueue_kb")
		tp, q := series(r, "throughput_gbps"), series(r, "queue_kb")
		for k := 0; k < len(tp); k += 5 {
			fmt.Printf("%.3f\t%.2f\t%.1f\n", tp[k].X/1e3, tp[k].V, q[k].V)
		}
		fmt.Println()
	}
}

func fig5() {
	schemes := []string{scenario.PowerTCP, scenario.Homa, scenario.ThetaPowerTCP, scenario.Timely}
	var specs []exp.Spec
	for _, sc := range schemes {
		specs = append(specs, spec(exp.Fairness{}, sc))
	}
	for _, r := range runSuite(specs) {
		fmt.Printf("# Figure 5 %s: Jain=%.3f\n", r.Scheme, scalar(r, "jain"))
		fmt.Println("# time_ms\tflow1\tflow2\tflow3\tflow4 (Gbps)")
		per := make([][]scenario.SeriesPoint, int(scalar(r, "flows")))
		for i := range per {
			per[i] = series(r, fmt.Sprintf("flow%d_gbps", i+1))
		}
		for k := 0; k < len(per[0]); k += 4 {
			fmt.Printf("%.3f", per[0][k].X/1e3)
			for i := range per {
				fmt.Printf("\t%.2f", per[i][k].V)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

func fig6() {
	loads := []float64{0.2, 0.6}
	var specs []exp.Spec
	for _, load := range loads {
		for _, sc := range scenario.Schemes {
			specs = append(specs, spec(exp.WebSearch{Load: load, ServersPerTor: serversPerTor()}, sc))
		}
	}
	results, n := runSuite(specs), len(scenario.Schemes)
	for li, load := range loads {
		fmt.Printf("# Figure 6: 99.9p FCT slowdown by flow size, websearch at %.0f%% load\n", load*100)
		fmt.Println("# scheme\t≤5K\t≤20K\t≤50K\t≤100K\t≤400K\t≤800K\t≤5M\t≤30M")
		for _, r := range results[li*n : (li+1)*n] {
			fmt.Printf("%s", r.Scheme)
			for _, b := range stats.FlowSizeBins {
				fmt.Printf("\t%.1f", scalar(r, "p999_bin_"+stats.SizeLabel(b)))
			}
			fmt.Printf("\t# completed=%d/%d\n", int(scalar(r, "completed")), int(scalar(r, "started")))
		}
		fmt.Println()
	}
}

func fig7() {
	schemes := []string{scenario.PowerTCP, scenario.ThetaPowerTCP, scenario.HPCC}
	spt := serversPerTor()

	// Build every panel's specs up front and run them as ONE suite, so
	// stragglers in one sub-figure never idle the worker pool. The
	// printed blocks below slice the ordered results.
	var specs []exp.Spec

	// 7a/7b: load sweep.
	loads := []float64{0.2, 0.4, 0.6, 0.8}
	loadStart := len(specs)
	for _, load := range loads {
		for _, sc := range schemes {
			specs = append(specs, spec(exp.WebSearch{Load: load, ServersPerTor: spt}, sc))
		}
	}

	// Request-rate and request-size sweeps (7c–7f). At bench scale the
	// simulated horizon is tens of ms, so the paper's 1–16 req/s maps to
	// proportionally higher rates for the same incasts-per-experiment.
	rates := []float64{250, 1000, 2000, 4000}
	if *fullFlag {
		rates = []float64{1, 4, 8, 16}
	}
	rateStart := len(specs)
	for _, rate := range rates {
		for _, sc := range schemes {
			specs = append(specs, spec(exp.WebSearch{Load: 0.8, ServersPerTor: spt,
				IncastRate: rate, IncastSize: 2 << 20}, sc))
		}
	}

	sizes := []int64{1, 2, 4, 8}
	sizeStart := len(specs)
	for _, mb := range sizes {
		for _, sc := range schemes {
			specs = append(specs, spec(exp.WebSearch{Load: 0.8, ServersPerTor: spt,
				IncastRate: rates[1], IncastSize: mb << 20}, sc))
		}
	}

	bufStart := len(specs)
	for _, withIncast := range []bool{false, true} {
		for _, sc := range schemes {
			cell := exp.WebSearch{Load: 0.8, ServersPerTor: spt, SampleBuffers: true}
			label := ""
			if withIncast {
				cell.IncastRate, cell.IncastSize = rates[len(rates)-1], 2<<20
				label = "incast"
			}
			s := spec(cell, sc)
			s.Label = label
			specs = append(specs, s)
		}
	}

	results := runSuite(specs)
	cell := func(i int) exp.WebSearch { return specs[i].Preset.(exp.WebSearch) }

	fmt.Println("# Figure 7a/7b: short & long flow 99.9p slowdown vs load")
	fmt.Println("# load\tscheme\tshort_p999\tlong_p999")
	for i, r := range results[loadStart:rateStart] {
		fmt.Printf("%.1f\t%s\t%.2f\t%.2f\n", cell(loadStart+i).Load, r.Scheme, scalar(r, "short_p999"), scalar(r, "long_p999"))
	}

	fmt.Println("\n# Figure 7c/7d: websearch@80% + incast, sweep request rate (2MB requests)")
	fmt.Println("# req_per_s\tscheme\tshort_p999\tlong_p999")
	for i, r := range results[rateStart:sizeStart] {
		fmt.Printf("%.0f\t%s\t%.2f\t%.2f\n", cell(rateStart+i).IncastRate, r.Scheme, scalar(r, "short_p999"), scalar(r, "long_p999"))
	}

	fmt.Println("\n# Figure 7e/7f: sweep request size at fixed rate")
	fmt.Println("# req_mb\tscheme\tshort_p999\tlong_p999")
	for i, r := range results[sizeStart:bufStart] {
		fmt.Printf("%d\t%s\t%.2f\t%.2f\n", cell(sizeStart+i).IncastSize>>20, r.Scheme, scalar(r, "short_p999"), scalar(r, "long_p999"))
	}

	fmt.Println("\n# Figure 7g/7h: buffer occupancy CDF at 80% load (+incast for 7h)")
	for i, r := range results[bufStart:] {
		fmt.Printf("# %s incast=%v p99_buffer=%.0fB\n", r.Scheme, cell(bufStart+i).IncastRate > 0, scalar(r, "buffer_p99_bytes"))
		fmt.Println("# occupancy_kb\tcdf")
		for _, p := range series(r, "buffer_cdf") {
			fmt.Printf("%.1f\t%.3f\n", p.X/1024, p.V)
		}
		fmt.Println()
	}
}

func fig8() {
	tors, servers, weeks := rdcnScale()
	schemes8a := []string{scenario.PowerTCP, scenario.HPCC, scenario.ReTCP600, scenario.ReTCP1800}
	var specs []exp.Spec
	for _, sc := range schemes8a {
		specs = append(specs, spec(exp.RDCN{Tors: tors, ServersPerTor: servers, Weeks: weeks}, sc))
	}
	rates := []units.BitRate{25 * units.Gbps, 50 * units.Gbps}
	schemes8b := []string{scenario.ReTCP600, scenario.ReTCP1800, scenario.HPCC, scenario.PowerTCP}
	for _, pg := range rates {
		for _, sc := range schemes8b {
			specs = append(specs, spec(exp.RDCN{Tors: tors, ServersPerTor: servers, Weeks: weeks,
				PacketRate: pg}, sc))
		}
	}
	results := runSuite(specs)

	fmt.Println("# Figure 8a: RDCN throughput & VOQ time series")
	for _, r := range results[:len(schemes8a)] {
		fmt.Printf("# %s: circuit_util=%.2f tail_queuing=%.1fus avg=%.1fGbps\n",
			r.Scheme, scalar(r, "circuit_utilization"), scalar(r, "tail_queuing_us"), scalar(r, "avg_goodput_gbps"))
		fmt.Println("# time_ms\tthroughput_gbps\tvoq_kb")
		tp, voq := series(r, "throughput_gbps"), series(r, "voq_kb")
		for k := 0; k < len(tp); k += 10 {
			fmt.Printf("%.3f\t%.2f\t%.1f\n", tp[k].X/1e3, tp[k].V, voq[k].V)
		}
		fmt.Println()
	}
	fmt.Println("# Figure 8b: tail queuing latency vs packet bandwidth")
	fmt.Println("# pkt_gbps\tscheme\ttail_queuing_us\tcircuit_util")
	for j, r := range results[len(schemes8a):] {
		fmt.Printf("%d\t%s\t%.1f\t%.2f\n", rates[j/len(schemes8b)]/units.Gbps, r.Scheme,
			scalar(r, "tail_queuing_us"), scalar(r, "circuit_utilization"))
	}
	fmt.Println()
}

func fig9() {
	spt255 := serversPerTor()
	var specs []exp.Spec
	for oc := 1; oc <= 6; oc++ {
		sc := fmt.Sprintf("homa-oc%d", oc)
		specs = append(specs,
			spec(exp.Fairness{}, sc),
			spec(exp.Incast{FanIn: 10, ServersPerTor: serversPerTor()}, sc),
			spec(exp.Incast{FanIn: spt255*8 - 2, ServersPerTor: spt255}, sc),
		)
	}
	results := runSuite(specs)
	fmt.Println("# Figures 9-11: HOMA overcommitment sweep")
	fmt.Println("# oc\tjain\tincast10_peak_kb\tincast10_done\tincast255_peak_kb\tincast255_done")
	for oc := 1; oc <= 6; oc++ {
		f, i10, i255 := results[(oc-1)*3], results[(oc-1)*3+1], results[(oc-1)*3+2]
		fmt.Printf("%d\t%.3f\t%.0f\t%d\t%.0f\t%d\n", oc, scalar(f, "jain"),
			scalar(i10, "peak_queue_kb"), int(scalar(i10, "completed")),
			scalar(i255, "peak_queue_kb"), int(scalar(i255, "completed")))
	}
	fmt.Println()
}

// figMultipath renders the supplementary multipath & failure figure:
// the scenarios PR 3's routing control plane opened. Panel A is the
// permutation stress (hash imbalance on the fat tree), panel B the
// unequal-spine fabric (ECMP vs WCMP), panel C the mid-run link failure
// (per-scheme recovery).
func figMultipath() {
	schemes := []string{scenario.PowerTCP, scenario.HPCC, scenario.Timely}
	spt := serversPerTor()

	var specs []exp.Spec
	permStart := len(specs)
	for _, routing := range []string{"single", "ecmp"} {
		for _, sc := range schemes {
			specs = append(specs, spec(exp.Permutation{Routing: routing, ServersPerTor: spt}, sc))
		}
	}
	asymStart := len(specs)
	for _, routing := range []string{"single", "ecmp", "wecmp"} {
		for _, sc := range []string{scenario.PowerTCP, scenario.HPCC} {
			specs = append(specs, spec(exp.Asymmetry{Routing: routing}, sc))
		}
	}
	failStart := len(specs)
	failSchemes := []string{scenario.PowerTCP, scenario.HPCC, scenario.Timely, scenario.Homa}
	for _, sc := range failSchemes {
		specs = append(specs, spec(exp.Failover{}, sc))
	}
	results := runSuite(specs)

	fmt.Println("# Supplementary MP-A: host-permutation goodput fairness under hash imbalance")
	fmt.Println("# routing\tscheme\tjain\tavg_gbps\tmin_gbps\tuplinks_used\tuplink_imbalance")
	for i, r := range results[permStart:asymStart] {
		fmt.Printf("%s\t%s\t%.3f\t%.2f\t%.2f\t%d/%d\t%.2f\n",
			specs[permStart+i].Preset.(exp.Permutation).Routing, r.Scheme, scalar(r, "jain"), scalar(r, "avg_goodput_gbps"),
			scalar(r, "min_goodput_gbps"), int(scalar(r, "uplinks_used")), int(scalar(r, "uplinks_total")),
			scalar(r, "uplink_imbalance"))
	}

	fmt.Println("\n# Supplementary MP-B: unequal spines (100G + 50G), ECMP vs WCMP")
	fmt.Println("# routing\tscheme\tefficiency\tjain\tspine_utils")
	for i, r := range results[asymStart:failStart] {
		fmt.Printf("%s\t%s\t%.3f\t%.3f", specs[asymStart+i].Preset.(exp.Asymmetry).Routing, r.Scheme,
			scalar(r, "efficiency"), scalar(r, "jain"))
		for _, u := range series(r, "spine_util") {
			fmt.Printf("\t%.2f", u.V)
		}
		fmt.Println()
	}

	fmt.Println("\n# Supplementary MP-C: spine-link failure at 1ms, restore at 3ms")
	fmt.Println("# scheme\trecovery_us\tqueue_spike_kb\tlost_pkts\tpre_gbps\tpost_gbps")
	for _, r := range results[failStart:] {
		fmt.Printf("%s\t%.0f\t%.1f\t%d\t%.1f\t%.1f\n",
			r.Scheme, scalar(r, "recovery_us"), scalar(r, "queue_spike_kb"), int(scalar(r, "lost_packets")),
			scalar(r, "pre_fail_gbps"), scalar(r, "post_fail_gbps"))
	}
	for _, r := range results[failStart:] {
		fmt.Printf("\n# MP-C series %s\n# time_ms\tgoodput_gbps\tqueue_kb\n", r.Scheme)
		gbps, q := series(r, "goodput_gbps"), series(r, "queue_kb")
		for k := 0; k < len(gbps); k += 10 {
			fmt.Printf("%.3f\t%.2f\t%.1f\n", gbps[k].X/1e3, gbps[k].V, q[k].V)
		}
	}
	fmt.Println()
}

func theory() {
	s := sys(fluid.Power)
	e1, e2 := s.Eigenvalues()
	fmt.Println("# Theorem 1 (stability): eigenvalues of the linearized system")
	fmt.Printf("lambda1=%.0f (−1/τ)\tlambda2=%.0f (−γ/δt)\tstable=%v\n",
		e1, e2, e1 < 0 && e2 < 0)
	tc := s.ConvergenceConstant(1e5)
	fmt.Println("# Theorem 2 (convergence): numeric time constant vs δt/γ")
	fmt.Printf("measured=%.3gs\tpredicted=%.3gs\n", tc, s.Dt.Seconds()/s.Gamma)
	eq, _ := s.Equilibrium()
	fmt.Printf("# Equilibrium: w_e=%.0fB (bτ+β̂), q_e=%.0fB (β̂)\n\n", eq.W, eq.Q)
}

// gamma is the parameter study behind the paper's γ = 0.9 recommendation
// (§3.3): every γ runs an incast (reaction speed), the staggered
// fairness flows and a steady websearch load (noise sensitivity), all
// under that γ, as one suite.
func gamma() {
	gammas := []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0}
	var specs []exp.Spec
	for _, g := range gammas {
		for _, p := range []exp.Preset{
			exp.Incast{FanIn: 16, Window: 3 * sim.Millisecond},
			exp.Fairness{Window: 6 * sim.Millisecond},
			exp.WebSearch{Load: 0.6, Duration: 8 * sim.Millisecond, Drain: 4 * sim.Millisecond},
		} {
			s := spec(p, scenario.PowerTCP)
			s.SchemeOpts = []scenario.SchemeOption{scenario.Gamma(g)}
			specs = append(specs, s)
		}
	}
	results := runSuite(specs)
	fmt.Println("# §3.3 γ sweep: reaction speed (incast) vs noise sensitivity (websearch)")
	fmt.Println("# gamma\tincast_peak_kb\tincast_tail_kb\tgoodput_gbps\tjain\tws_short_p999\tws_long_p999")
	for i, g := range gammas {
		ic, fr, ws := results[3*i], results[3*i+1], results[3*i+2]
		fmt.Printf("%.2f\t%.0f\t%.1f\t%.1f\t%.3f\t%.1f\t%.1f\n", g,
			scalar(ic, "peak_queue_kb"), scalar(ic, "tail_mean_queue_kb"), scalar(ic, "avg_goodput_gbps"),
			scalar(fr, "jain"), scalar(ws, "short_p999"), scalar(ws, "long_p999"))
	}
	fmt.Println()
}
