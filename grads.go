// Package grads is a from-scratch Go reproduction of the system described
// in "New Grid Scheduling and Rescheduling Methods in the GrADS Project"
// (IPPS/IPDPS 2004): the GrADS execution framework — workflow scheduling
// with performance-model-driven ranks and the min-min/max-min/sufferage
// heuristics, performance-contract monitoring, stop/migrate/restart
// rescheduling via SRS checkpointing, and MPI process-swapping — together
// with every substrate the paper's evaluation depends on, implemented over
// a deterministic discrete-event Grid emulator (our MicroGrid equivalent).
//
// The implementation lives under internal/; this package provides the
// top-level entry points used by cmd/gradsim and the benchmarks:
//
//	out, err := grads.RunExperiment("fig3")   // regenerate Figure 3
//	fmt.Print(out)
//
// See DESIGN.md for the full system inventory and the per-experiment index,
// and EXPERIMENTS.md for paper-versus-measured results.
package grads

import (
	"fmt"
	"sort"
	"strings"

	"grads/internal/apps"
	"grads/internal/chaossoak"
	"grads/internal/experiments"
	"grads/internal/faultinject"
	"grads/internal/metasched"
	"grads/internal/telemetry"
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// SetTelemetry installs an observability hub that every experiment run
// after this call publishes into: kernel, CPU-model, network-model,
// scheduler, rescheduler, contract-monitor, checkpoint and swap events,
// plus per-component metrics. Pass nil to disable (the default). The same
// seeded experiment emits a byte-identical JSONL stream on every run; see
// TestDeterminism.
func SetTelemetry(tel *telemetry.Telemetry) { experiments.SetTelemetry(tel) }

// seedOverride, when non-zero, replaces the default RNG seed of every
// seeded experiment (the gradsim -seed flag).
var seedOverride int64

// SetSeed overrides the default seed of every seeded experiment run after
// this call. Zero restores the per-experiment defaults.
func SetSeed(seed int64) { seedOverride = seed }

// SetReferenceSolver makes every experiment run after this call use the
// reference (global progressive-filling) network solver instead of the
// incremental one (the gradsim -netsim-reference flag). Both solvers produce
// byte-identical telemetry traces; the knob exists so that equivalence can be
// verified on the published experiments.
func SetReferenceSolver(on bool) { experiments.SetReferenceSolver(on) }

// SetShards selects how many shard kernels the sharded experiments (scale,
// scale-smoke) run with (the gradsim -shards flag). 1 — the default — is the
// single-kernel determinism oracle; any N produces byte-identical traces
// (see internal/shardsim and the "Sharded emulation" README section).
func SetShards(n int) { experiments.SetShards(n) }

// seedOr resolves an experiment's seed: the global override when set, else
// the experiment's default.
func seedOr(def int64) int64 {
	if seedOverride != 0 {
		return seedOverride
	}
	return def
}

// experiment is one registry entry: a one-line title (for -list and usage),
// the report driver, and an optional CSV driver. skipAll excludes an entry
// from RunAll — used by the wall-clock scale experiment, whose timings would
// break the byte-identical `-exp all` determinism contract.
type experiment struct {
	title   string
	run     func() (string, error)
	csv     func() (string, error)
	skipAll bool
}

// Info names one runnable experiment for listings.
type Info struct {
	Name, Title string
	HasCSV      bool
}

// Experiments enumerates the runnable experiment names, each regenerating
// one table or figure of the paper (see DESIGN.md §3 for the mapping).
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe enumerates every experiment with its one-line title, sorted by
// name. cmd/gradsim derives its -list output and usage text from this, so
// the CLI cannot drift from the registry.
func Describe() []Info {
	out := make([]Info, 0, len(registry))
	for _, name := range Experiments() {
		e := registry[name]
		out = append(out, Info{Name: name, Title: e.title, HasCSV: e.csv != nil})
	}
	return out
}

// registry maps experiment names to their titles and drivers.
var registry = map[string]experiment{
	"fig3": {
		title: "Figure 3 — QR stop/restart phase breakdown per matrix size",
		run: func() (string, error) {
			rows, err := experiments.RunFig3(experiments.DefaultFig3Config())
			if err != nil {
				return "", err
			}
			return "Figure 3 — QR stop/restart, phase breakdown per matrix size\n" +
				"(left bar = no rescheduling, right bar = rescheduling)\n\n" +
				experiments.FormatFig3(rows), nil
		},
	},
	"fig3-decisions": {
		title: "§4.1.2 — rescheduler decisions vs ground truth per matrix size",
		run: func() (string, error) {
			rows, err := experiments.RunFig3(experiments.DefaultFig3Config())
			if err != nil {
				return "", err
			}
			return "§4.1.2 — rescheduler decisions vs ground truth per matrix size\n\n" +
				experiments.FormatFig3Decisions(rows), nil
		},
		csv: func() (string, error) {
			rows, err := experiments.RunFig3(experiments.DefaultFig3Config())
			if err != nil {
				return "", err
			}
			t := &experiments.Table{Header: []string{"n", "stay_s", "migrate_s", "helps", "worstcase_migrates", "honest_migrates", "est_cost_s", "actual_cost_s"}}
			for _, r := range rows {
				t.Add(fmt.Sprint(r.N), fmt.Sprint(r.StayTotal), fmt.Sprint(r.MigrateTotal),
					fmt.Sprint(r.MigrationHelps), fmt.Sprint(r.WorstCaseDecision),
					fmt.Sprint(r.HonestDecision), fmt.Sprint(r.HonestCost), fmt.Sprint(r.ActualCost))
			}
			return t.CSV(), nil
		},
	},
	"fig4": {
		title: "Figure 4 — N-body progress under process swapping (MicroGrid)",
		run: func() (string, error) {
			r, err := experiments.RunFig4(experiments.DefaultFig4Config())
			if err != nil {
				return "", err
			}
			return "Figure 4 — N-body progress under process swapping (MicroGrid)\n\n" +
				experiments.FormatFig4(r, 20), nil
		},
		csv: func() (string, error) {
			r, err := experiments.RunFig4(experiments.DefaultFig4Config())
			if err != nil {
				return "", err
			}
			base := map[int]float64{}
			for _, m := range r.Baseline {
				base[m.Iter] = m.Time
			}
			t := &experiments.Table{Header: []string{"iteration", "t_with_swap_s", "t_no_swap_s"}}
			for _, m := range r.Progress {
				t.Add(fmt.Sprint(m.Iter), fmt.Sprint(m.Time), fmt.Sprint(base[m.Iter]))
			}
			return t.CSV(), nil
		},
	},
	"eman": {
		title: "§3.3 — EMAN refinement workflow on the heterogeneous MacroGrid",
		run: func() (string, error) {
			cfg := experiments.DefaultEMANConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunEMAN(cfg)
			if err != nil {
				return "", err
			}
			return "§3.3 — EMAN refinement workflow on the heterogeneous MacroGrid\n\n" +
				experiments.FormatEMAN(res), nil
		},
	},
	"eman-dag": {
		title: "Figure 2 — EMAN refinement workflow structure",
		run: func() (string, error) {
			cfg := experiments.DefaultEMANConfig()
			wf, err := apps.EMANWorkflow(cfg.Particles, cfg.Width)
			if err != nil {
				return "", err
			}
			return "Figure 2 — EMAN refinement workflow (expanded " +
				fmt.Sprintf("%d-way)\n\n", cfg.Width) +
				experiments.FormatEMANDag(wf.Expand()), nil
		},
	},
	"heuristics": {
		title: "§3.1 ablation — mapping heuristics on random workflows",
		run: func() (string, error) {
			cfg := experiments.DefaultHeurConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunHeuristics(cfg)
			if err != nil {
				return "", err
			}
			w, err := experiments.RunRankWeights(cfg, nil)
			if err != nil {
				return "", err
			}
			return "§3.1 ablation — mapping heuristics on random workflows\n\n" +
				experiments.FormatHeuristics(res) + "\nrank-weight sweep (w2 = data-cost weight):\n\n" +
				experiments.FormatRankWeights(w), nil
		},
	},
	"dagzoo": {
		title: "extension — DAG-zoo leaderboard: list heuristics (HEFT/CPOP/sufferage-list/min-min) x rescheduling policy",
		run: func() (string, error) {
			cfg := experiments.DefaultDagZooConfig()
			cfg.Seed = seedOr(cfg.Seed)
			classes, err := experiments.RunDagZoo(cfg)
			if err != nil {
				return "", err
			}
			return "extension — DAG-zoo leaderboard: list-scheduling heuristics x\n" +
				"rescheduling policy on the MacroGrid (every schedule passes the\n" +
				"listsched validity harness; static = ride out a mid-run slowdown,\n" +
				"remap = re-plan unstarted tasks around it)\n\n" +
				experiments.FormatDagZoo(classes), nil
		},
		csv: func() (string, error) {
			cfg := experiments.DefaultDagZooConfig()
			cfg.Seed = seedOr(cfg.Seed)
			classes, err := experiments.RunDagZoo(cfg)
			if err != nil {
				return "", err
			}
			return experiments.DagZooTable(classes).CSV(), nil
		},
	},
	"dagzoo-smoke": {
		title: "CI — compressed multi-seed dagzoo leaderboard (fails on any validity violation)",
		run: func() (string, error) {
			seeds := []int64{1, 2}
			if s := seedOr(0); s != 0 {
				seeds = []int64{s}
			}
			return experiments.RunDagZooSmoke(seeds)
		},
	},
	"swap-policies": {
		title: "§4.2 ablation — swapping policies on the Figure 4 scenario",
		run: func() (string, error) {
			res, err := experiments.RunSwapPolicies(experiments.DefaultFig4Config())
			if err != nil {
				return "", err
			}
			return "§4.2 ablation — swapping policies on the Figure 4 scenario\n\n" +
				experiments.FormatSwapPolicies(res), nil
		},
	},
	"opportunistic": {
		title: "§4.1.1 — opportunistic rescheduling onto freed resources",
		run: func() (string, error) {
			r, err := experiments.RunOpportunistic(experiments.DefaultOpportunisticConfig())
			if err != nil {
				return "", err
			}
			return "§4.1.1 — opportunistic rescheduling onto freed resources\n\n" +
				experiments.FormatOpportunistic(r), nil
		},
	},
	"fault": {
		title: "extension — fault tolerance: crash recovery from SRS checkpoints",
		run: func() (string, error) {
			res, err := experiments.RunFault(experiments.DefaultFaultConfig())
			if err != nil {
				return "", err
			}
			return "extension (paper conclusion) — fault tolerance: node crash +\n" +
				"recovery from periodic SRS checkpoints\n\n" +
				experiments.FormatFault(res), nil
		},
		csv: func() (string, error) {
			res, err := experiments.RunFault(experiments.DefaultFaultConfig())
			if err != nil {
				return "", err
			}
			t := &experiments.Table{Header: []string{"interval_panels", "total_s", "lost_work_s", "ckpt_write_s", "restore_s", "recoveries"}}
			for _, r := range res {
				t.Add(fmt.Sprint(r.Interval), fmt.Sprint(r.Total), fmt.Sprint(r.LostWork),
					fmt.Sprint(r.CkptWrite), fmt.Sprint(r.CkptRead), fmt.Sprint(r.Recoveries))
			}
			return t.CSV(), nil
		},
	},
	"chaos": {
		title: "extension — chaos study: completion and recovery vs node MTBF",
		run: func() (string, error) {
			cfg := experiments.DefaultChaosConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunChaos(cfg)
			if err != nil {
				return "", err
			}
			return "extension — chaos study: QR and EMAN under seeded node crashes,\n" +
				"completion time and recovery count vs node MTBF\n\n" +
				experiments.FormatChaos(res), nil
		},
		csv: func() (string, error) {
			cfg := experiments.DefaultChaosConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunChaos(cfg)
			if err != nil {
				return "", err
			}
			t := &experiments.Table{Header: []string{"workload", "mtbf_s", "completed", "total_s", "recoveries", "faults_injected", "faults_recovered", "detector_suspects", "service_retries"}}
			for _, r := range res {
				t.Add(r.Workload, fmt.Sprint(r.MTBF), fmt.Sprint(r.Completed), fmt.Sprint(r.Total),
					fmt.Sprint(r.Recoveries), fmt.Sprint(r.Injected), fmt.Sprint(r.Recovered),
					fmt.Sprint(r.Suspects), fmt.Sprint(r.Retries))
			}
			return t.CSV(), nil
		},
	},
	"soak": {
		title: "extension — chaos soak: invariant harness under a randomized mixed fault schedule",
		run: func() (string, error) {
			cfg := experiments.DefaultSoakConfig()
			cfg.Seed = seedOr(cfg.Seed)
			r, err := experiments.RunSoak(cfg)
			if err != nil {
				return "", err
			}
			report := "extension — chaos soak: metascheduler + recovery control plane under\n" +
				"randomized crashes, storms, partitions, outages and checkpoint corruption\n\n" +
				experiments.FormatSoak(r)
			if fail := experiments.SoakFailure([]*chaossoak.Result{r}); fail != "" {
				return "", fmt.Errorf("soak failed: %s\n\n%s", fail, report)
			}
			return report, nil
		},
		csv: func() (string, error) {
			cfg := experiments.DefaultSoakConfig()
			cfg.Seed = seedOr(cfg.Seed)
			r, err := experiments.RunSoak(cfg)
			if err != nil {
				return "", err
			}
			t := &experiments.Table{Header: []string{"class", "jobs", "done", "failed", "quarantined", "mean_turnaround_s", "mean_requeues"}}
			for _, c := range r.PerClass {
				t.Add(c.Class, fmt.Sprint(c.Jobs), fmt.Sprint(c.Done), fmt.Sprint(c.Failed),
					fmt.Sprint(c.Quarantined), fmt.Sprint(c.MeanTurnaround), fmt.Sprintf("%.2f", c.MeanRequeues))
			}
			return t.CSV(), nil
		},
	},
	"soak-smoke": {
		title: "CI — compressed multi-seed chaos soak (fails on any invariant violation)",
		run: func() (string, error) {
			seeds := []int64{1, 2, 3}
			if s := seedOr(0); s != 0 {
				seeds = []int64{s}
			}
			results, err := experiments.RunSoakSmoke(seeds)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			b.WriteString("CI — compressed chaos soak, one run per seed\n")
			for _, r := range results {
				b.WriteString("\n")
				b.WriteString(experiments.FormatSoak(r))
			}
			if fail := experiments.SoakFailure(results); fail != "" {
				return "", fmt.Errorf("soak smoke failed: %s\n\n%s", fail, b.String())
			}
			return b.String(), nil
		},
	},
	"validation": {
		title: "§1/§4.2 — MicroGrid-vs-MacroGrid cross-validation of the swap scenario",
		run: func() (string, error) {
			r, err := experiments.RunValidation(experiments.DefaultFig4Config())
			if err != nil {
				return "", err
			}
			return "§1/§4.2 — MicroGrid-vs-MacroGrid cross-validation of the swap scenario\n\n" +
				experiments.FormatValidation(r), nil
		},
	},
	"weather": {
		title: "ablation — NWS forecasts vs mid-spike samples for migration decisions",
		run: func() (string, error) {
			cfg := experiments.DefaultWeatherConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunWeather(cfg)
			if err != nil {
				return "", err
			}
			return "ablation — why migration decisions use NWS forecasts: bursty WAN\n" +
				"cross traffic, decisions sampled mid-spike vs a time-averaged oracle\n\n" +
				experiments.FormatWeather(res), nil
		},
	},
	"economy": {
		title: "extension — Grid economies: commodities market vs auctions",
		run: func() (string, error) {
			cfg := experiments.DefaultEconomyConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunEconomy(cfg)
			if err != nil {
				return "", err
			}
			return "extension (paper conclusion, cites G-commerce [24]) — Grid economies:\n" +
				"commodities market vs auctions under fluctuating demand\n\n" +
				experiments.FormatEconomy(res), nil
		},
	},
	"scale": {
		title:   "extension — sharded-kernel scaling curve on the 10k-node synthetic grid (wall-clock; excluded from 'all')",
		skipAll: true,
		run: func() (string, error) {
			vs, err := experiments.RunScaleCurve(seedOr(1))
			if err != nil {
				return "", err
			}
			return "extension — sharded multi-site kernel: scaling curve on the 10k-node\n" +
				"synthetic grid (per-site fabrics on 1, 2, 4 and 8 shard kernels)\n\n" +
				experiments.FormatScale(vs), nil
		},
	},
	"scale-smoke": {
		title: "CI — shard-equivalence smoke: seeded chaos/contention/soak traces under -shards N",
		run: func() (string, error) {
			out, err := experiments.RunScaleSmoke(seedOr(0))
			if err != nil {
				return "", err
			}
			return "CI — shard-equivalence smoke: every line below (and the replayed\n" +
				"-trace-jsonl stream) is byte-identical for any -shards N\n\n" + out, nil
		},
	},
	"serve": {
		title: "extension — serving: front-door request stream over the broker fleet, rate x routing-policy sweep",
		run: func() (string, error) {
			cfg := experiments.DefaultServeConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunServe(cfg)
			if err != nil {
				return "", err
			}
			return "extension — serving: an open-loop request stream through the front\n" +
				"door (QoS classes int/batch/bulk) onto a lopsided 8/4/2-node broker\n" +
				"fleet, swept over arrival rate x routing policy\n\n" +
				experiments.FormatServe(res), nil
		},
		csv: func() (string, error) {
			cfg := experiments.DefaultServeConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunServe(cfg)
			if err != nil {
				return "", err
			}
			return experiments.ServeClassTable(res).CSV(), nil
		},
	},
	"serve-smoke": {
		title: "CI — compressed multi-seed serving cell (fails on any conservation violation)",
		run: func() (string, error) {
			seeds := []int64{1, 2, 3}
			if s := seedOr(0); s != 0 {
				seeds = []int64{s}
			}
			return experiments.RunServeSmoke(seeds)
		},
	},
	"contention": {
		title: "extension — metascheduler: contention-aware multi-application stream",
		run: func() (string, error) {
			cfg := experiments.DefaultContentionConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunContention(cfg)
			if err != nil {
				return "", err
			}
			return "extension — metascheduler: a contended multi-application job stream\n" +
				"(QR + task farms) under admission control, leases and preemptive\n" +
				"rescheduling, swept over arrival rate x queue policy\n\n" +
				experiments.FormatContention(res), nil
		},
		csv: func() (string, error) {
			cfg := experiments.DefaultContentionConfig()
			cfg.Seed = seedOr(cfg.Seed)
			res, err := experiments.RunContention(cfg)
			if err != nil {
				return "", err
			}
			return experiments.ContentionTable(res).CSV(), nil
		},
	},
}

// RunFaultSpec runs the QR workload under an explicit fault schedule (the
// gradsim -faults flag; see faultinject.ParseSpec for the grammar) and
// returns a report with the executed timeline and the recovery summary.
func RunFaultSpec(spec string) (string, error) {
	events, err := faultinject.ParseSpec(spec)
	if err != nil {
		return "", err
	}
	cfg := experiments.DefaultChaosConfig()
	cfg.Seed = seedOr(cfg.Seed)
	r, timeline, err := experiments.RunChaosSpec(cfg, events)
	if err != nil {
		return "", err
	}
	return "fault injection — QR workload under explicit schedule\n\n" +
		"schedule:\n" + timeline + "\n" +
		experiments.FormatChaos([]experiments.ChaosResult{*r}), nil
}

// RunJobStream pushes an explicit submission stream (the gradsim -jobs
// flag; see metasched.ParseStream for the grammar) through the
// metascheduler broker on the QR testbed and returns the per-job outcome
// table.
func RunJobStream(stream string) (string, error) {
	entries, err := metasched.ParseStream(stream)
	if err != nil {
		return "", err
	}
	cfg := experiments.DefaultJobStreamConfig(entries)
	cfg.Seed = seedOr(cfg.Seed)
	recs, err := experiments.RunJobStream(cfg)
	if err != nil {
		return "", err
	}
	return "job stream — metascheduler broker on the QR testbed\n\n" +
		"stream: " + metasched.FormatStream(entries) + "\n\n" +
		experiments.JobStreamTable(recs).String(), nil
}

// RunZoo schedules an explicit DAG-zoo spec (the gradsim -zoo flag; see
// listsched.ParseZoo for the grammar) with the named list-scheduling
// heuristic (the -heuristic flag) on the MacroGrid and returns the per-DAG
// makespan/SLR/utilization report.
func RunZoo(spec, heuristic string) (string, error) {
	return experiments.RunZoo(spec, heuristic, seedOr(0))
}

// RunArrivals realizes an explicit serving workload (the gradsim -arrivals
// flag; see frontdoor.ParseArrivals for the grammar) through the front door
// on the standard fleet, routed by the named policy (the -route flag), and
// returns the outcome report.
func RunArrivals(spec, route string) (string, error) {
	return experiments.RunArrivals(spec, route, seedOr(0))
}

// RunExperiment regenerates one experiment by name and returns its
// formatted report.
func RunExperiment(name string) (string, error) {
	e, ok := registry[name]
	if !ok {
		return "", fmt.Errorf("grads: unknown experiment %q (have: %s)",
			name, strings.Join(Experiments(), ", "))
	}
	return e.run()
}

// RunExperimentCSV regenerates one tabular experiment as CSV. Experiments
// without a CSV form return an error listing those that have one.
func RunExperimentCSV(name string) (string, error) {
	e, ok := registry[name]
	if !ok || e.csv == nil {
		var names []string
		for _, info := range Describe() {
			if info.HasCSV {
				names = append(names, info.Name)
			}
		}
		return "", fmt.Errorf("grads: no CSV form for %q (have: %s)", name, strings.Join(names, ", "))
	}
	return e.csv()
}

// RunAll regenerates every experiment except the wall-clock ones (skipAll),
// concatenating the reports. Its output is part of the determinism contract:
// same seeds, same bytes.
func RunAll() (string, error) {
	var b strings.Builder
	for _, name := range Experiments() {
		if registry[name].skipAll {
			continue
		}
		out, err := RunExperiment(name)
		if err != nil {
			return b.String(), fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(&b, "==== %s ====\n\n%s\n", name, out)
	}
	return b.String(), nil
}
