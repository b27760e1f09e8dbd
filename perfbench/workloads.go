package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"grads/internal/binder"
	"grads/internal/chaossoak"
	"grads/internal/core"
	"grads/internal/experiments"
	"grads/internal/frontdoor"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/listsched"
	"grads/internal/metasched"
	"grads/internal/shardsim"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// A workload is one batch of inputs generated from the seed. setup builds
// the inputs and warms the code up; run executes the whole batch once
// through the layers' public entry points and checks every outcome.
type workload interface {
	setup() error
	// run executes the batch. tel is the telemetry hub of a traced run and
	// nil otherwise; m (possibly nil) is told when one operation has ended
	// and the next not yet begun.
	run(tel *telemetry.Telemetry, sp *spanLog, m *meter) batch
	// verify runs the one-off cross-checks that are too costly to repeat
	// per batch (at most once per benchmark run, after measurement).
	verify(sp *spanLog) batch
}

// batch is the outcome of one run of a workload.
type batch struct {
	ops    int      // operations attempted
	failed int      // operations whose outcome failed a check
	notes  []string // one line per failure
	digest string   // hash of every simulated statistic of the batch

	// Work done, read from the layers' own results (not telemetry), so it
	// is available untraced.
	events    uint64 // kernel events fired
	rounds    uint64 // shardsim barrier rounds
	delivered uint64 // shardsim cross-site messages
	traceHash string // scale: hash of the merged trace (traced runs only)

	plans []plan // sched: one entry per planned DAG
	memo  map[string][2]uint64
}

// plan is one scheduling decision: one DAG planned by one heuristic.
type plan struct {
	class, heuristic string
	latency          time.Duration
}

func (b *batch) fail(format string, args ...any) {
	b.failed++
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// digestOf hashes the printed form of its arguments. Every hashed value is
// a plain struct of numbers and strings, so %v is deterministic.
func digestOf(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// newWorkload returns the named workload for one seed; tiny selects the
// self-test size.
func newWorkload(name string, seed int64, tiny bool) (workload, error) {
	switch name {
	case "soak":
		return &soakWorkload{seed: seed, tiny: tiny}, nil
	case "sched":
		return &schedWorkload{seed: seed, tiny: tiny}, nil
	case "scale":
		return &scaleWorkload{seed: seed, tiny: tiny}, nil
	case "serve":
		return &serveWorkload{seed: seed, tiny: tiny}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"soak", "sched", "scale", "serve"}

// segmentOps is how many operations of a batch one measured segment holds
// (see measure): segments of 0.3 to 1.2 CPU seconds, so the reference
// kernel timed between them adds a fifth or less. The split is by count,
// not time, so that every run of a seed measures the same segments (peak
// memory is a per-segment figure). scale's batch is one operation.
var segmentOps = map[string]int{"soak": 1, "sched": 6, "scale": 1, "serve": 4}

// procsFor is the GOMAXPROCS a workload runs with. soak and serve run one
// simulation at a time on one goroutine: a second P would only run the
// GC's mark workers beside it, and the CPU time that costs on top of the
// work (serve's batches took a quarter more CPU on two Ps) moved with
// whatever else the host ran. scale's two shard kernels run on one P too:
// on two, the shard waiting at each barrier spun for work, and the CPU
// time that cost (a fifth of the batch) grew whenever the host was busy.
// sched allocates fastest (about 340 MB per batch): on one P its GC fell
// behind by a varying margin and the peak resident memory of the same
// seed ranged from 11.5 to 14.7 MB, so it keeps a second P for the mark
// worker (10.2 to 10.5 MB).
func procsFor(name string) int {
	if name == "sched" {
		return min(2, runtime.NumCPU())
	}
	return 1
}

// subSeed derives the i-th input seed of a batch from the benchmark seed.
func subSeed(seed int64, i int) int64 { return seed*7919 + int64(i) + 1 }

// ---- soak: deep metascheduler streams under the mixed fault schedule ----

const (
	soakJobs    = 350 // stream depth: deep enough that the broker round dominates
	soakStreams = 4
)

type soakWorkload struct {
	seed int64
	tiny bool
	cfgs []chaossoak.Config
}

func (w *soakWorkload) setup() error {
	w.cfgs = w.cfgs[:0]
	jobs, streams := soakJobs, soakStreams
	if w.tiny {
		jobs, streams = 30, 1
	}
	for i := 0; i < streams; i++ {
		cfg := chaossoak.DefaultConfig()
		cfg.Seed = subSeed(w.seed, i)
		cfg.Jobs = jobs
		// Keep the published fault density: the fault window shrinks with
		// the stream.
		cfg.Horizon = cfg.Horizon * float64(jobs) / float64(chaossoak.DefaultConfig().Jobs)
		cfg.MinKernelEvents = 0
		w.cfgs = append(w.cfgs, cfg)
	}
	// Warm-up: the CI smoke stream.
	_, err := chaossoak.Run(chaossoak.SmokeConfig(w.seed))
	return err
}

func (w *soakWorkload) run(tel *telemetry.Telemetry, sp *spanLog, m *meter) batch {
	var b batch
	var results []chaossoak.Result
	for _, cfg := range w.cfgs {
		m.between()
		cfg.Telemetry = tel
		b.ops++
		id := sp.begin("chaossoak.Run", 0)
		r, err := chaossoak.Run(cfg)
		sp.end(id)
		if err != nil {
			b.fail("soak seed %d: %v", cfg.Seed, err)
			continue
		}
		switch {
		case len(r.Violations) > 0:
			b.fail("soak seed %d: %d invariant violations, first: %s", cfg.Seed, len(r.Violations), r.Violations[0].Detail)
		case r.LostJobs > 0:
			b.fail("soak seed %d: %d lost jobs", cfg.Seed, r.LostJobs)
		case !r.Drained:
			b.fail("soak seed %d: stream did not drain", cfg.Seed)
		}
		b.events += r.KernelEvents
		results = append(results, *r)
	}
	b.digest = digestOf(results)
	return b
}

func (w *soakWorkload) verify(*spanLog) batch { return batch{} }

// ---- sched: every zoo class planned by every heuristic ----

// schedClasses are the DAG zoo classes at low and high communication-to-
// computation ratio (eman has no CCR knob). The eman workflow reuses the
// cost-model memo heavily; the random fan-outs hardly at all.
var schedClasses = []struct{ class, spec string }{
	{"chain", "chain:n=16,ccr=0.25"},
	{"chain", "chain:n=16,ccr=4"},
	{"fanout", "fanout:width=24,ccr=0.25"},
	{"fanout", "fanout:width=24,ccr=4"},
	{"diamond", "diamond:width=6,layers=4,ccr=0.25"},
	{"diamond", "diamond:width=6,layers=4,ccr=4"},
	{"layered", "layered:layers=4,width=8,fanin=3,ccr=0.25"},
	{"layered", "layered:layers=4,width=8,fanin=3,ccr=4"},
	{"eman", "eman:n=400,width=8"},
}

// schedHeuristics are the planners: every registered listsched heuristic,
// then core's max-min and sufferage.
var schedHeuristics = append(listsched.Names(), "core-"+core.MaxMin, "core-"+core.Sufferage)

var schedClassNames = []string{"chain", "fanout", "diamond", "layered", "eman"}

const schedCopies = 2 // DAGs per zoo entry

type schedWorkload struct {
	seed      int64
	tiny      bool
	env       *experiments.Env
	resources []*topology.Node
	dags      []schedDAG
	planners  map[string]listsched.Heuristic
}

type schedDAG struct {
	class, spec string
	wf          *core.Workflow
}

func (w *schedWorkload) setup() error {
	w.env = experiments.NewEnv(w.seed, topology.MacroGrid, "perfbench", 0)
	w.resources = w.env.Grid.Nodes()
	w.planners = map[string]listsched.Heuristic{}
	for _, name := range listsched.Names() {
		h, err := listsched.New(name)
		if err != nil {
			return err
		}
		w.planners[name] = h
	}
	copies, classes := schedCopies, schedClasses
	if w.tiny {
		copies = 1
		classes = []struct{ class, spec string }{
			{"chain", "chain:n=6,ccr=4"}, {"fanout", "fanout:width=6,ccr=0.25"},
			{"diamond", "diamond:width=3,layers=2,ccr=1"}, {"layered", "layered:layers=3,width=3,fanin=2,ccr=1"},
			{"eman", "eman:n=16,width=2"},
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.dags = w.dags[:0]
	for _, c := range classes {
		specs, err := listsched.ParseZoo(c.spec)
		if err != nil {
			return err
		}
		for k := 0; k < copies; k++ {
			wf, err := specs[0].Build(rng)
			if err != nil {
				return fmt.Errorf("build %s: %w", c.spec, err)
			}
			w.dags = append(w.dags, schedDAG{class: c.class, spec: c.spec, wf: wf})
		}
	}
	// Warm-up: plan the first DAG once with every planner.
	s := core.NewScheduler(w.env.Grid, nil)
	var b batch
	for _, name := range schedHeuristics {
		w.plan(&b, nil, s, w.dags[0], name)
	}
	if b.failed > 0 {
		return fmt.Errorf("warm-up: %s", b.notes[0])
	}
	return nil
}

func (w *schedWorkload) run(tel *telemetry.Telemetry, sp *spanLog, m *meter) batch {
	w.env.Sim.SetTelemetry(tel)
	defer w.env.Sim.SetTelemetry(nil)
	b := batch{memo: map[string][2]uint64{}}
	var mk []float64
	for _, d := range w.dags {
		m.between()
		// A fresh scheduler per DAG, as in the dagzoo experiment: its
		// memo is shared by the six planners of that DAG only.
		s := core.NewScheduler(w.env.Grid, nil)
		for _, name := range schedHeuristics {
			mk = append(mk, w.plan(&b, sp, s, d, name))
		}
		hits, misses, _ := s.Cache.Stats()
		hm := b.memo[d.class]
		b.memo[d.class] = [2]uint64{hm[0] + hits, hm[1] + misses}
	}
	b.digest = digestOf(mk)
	return b
}

// plan runs one planner on one DAG, times the public call, checks the plan
// with listsched.CheckResult and returns its makespan (NaN on failure).
func (w *schedWorkload) plan(b *batch, sp *spanLog, s *core.Scheduler, d schedDAG, name string) float64 {
	b.ops++
	ctx := listsched.NewContext(s, d.wf, w.resources)
	span := sp.begin("sched/"+d.class+"/"+name, 0)
	t0 := time.Now()
	var res *listsched.Result
	var sched *core.Schedule
	var err error
	coreName, isCore := strings.CutPrefix(name, "core-")
	if isCore {
		sched, err = s.ScheduleWith(coreName, d.wf, w.resources)
	} else {
		res, err = w.planners[name].Schedule(ctx)
	}
	b.plans = append(b.plans, plan{d.class, name, time.Since(t0)})
	sp.end(span)
	if err == nil && isCore {
		res, err = coreResult(ctx, sched)
	}
	if err == nil {
		check := sp.begin("listsched.CheckResult", span)
		err = listsched.CheckResult(ctx, res)
		sp.end(check)
	}
	if err != nil {
		b.fail("sched %s %s: %v", d.spec, name, err)
		return math.NaN()
	}
	return res.Makespan
}

// coreResult lays a core.Scheduler schedule onto the context's timelines so
// the listsched validity harness can check it. Core charges data movement
// in the slot duration, as the min-min adapter does (CommInStart false).
func coreResult(ctx *listsched.Context, sched *core.Schedule) (*listsched.Result, error) {
	idx := make(map[*topology.Node]int, len(ctx.Resources))
	for k, r := range ctx.Resources {
		idx[r] = k
	}
	for ci, a := range sched.Assignments {
		k, ok := idx[a.Node]
		if !ok {
			return nil, fmt.Errorf("component %d on a node outside the context", ci)
		}
		if err := ctx.Timelines[k].Insert(a.Start, a.Finish-a.Start, listsched.SlotLabel(ci)); err != nil {
			return nil, err
		}
	}
	return &listsched.Result{
		Heuristic:   sched.Heuristic,
		Makespan:    sched.Makespan,
		Assignments: sched.Assignments,
		Timelines:   ctx.Timelines,
	}, nil
}

func (w *schedWorkload) verify(*spanLog) batch { return batch{} }

// ---- scale: the 10,240-node sharded emulation at two shards ----

// scaleShards is the shard-kernel count: two, or fewer on a host with
// fewer CPUs. Results are identical at every shard count.
var scaleShards = min(2, runtime.NumCPU())

type scaleWorkload struct {
	seed int64
	tiny bool
	cfg  shardsim.ScenarioConfig
}

func (w *scaleWorkload) setup() error {
	w.cfg = shardsim.ScaleConfig(w.seed)
	if w.tiny {
		w.cfg = shardsim.ChaosSmokeConfig(w.seed)
	}
	w.cfg.Shards = scaleShards
	// Warm-up: a quarter of the topology (4 mega-sites) with a short job
	// stream, on the same shard count.
	warm := shardsim.ScaleConfig(w.seed)
	warm.Sites, warm.Jobs, warm.Crashes = 4, 150, 2
	warm.Shards = scaleShards
	if r := shardsim.RunScenario(warm); len(r.Violations) > 0 {
		return fmt.Errorf("warm-up: %s", r.Violations[0])
	}
	return nil
}

// scaleStats is the shard-count-invariant part of a scenario result.
type scaleStats struct {
	FinalTime                                float64
	Rounds, Delivered, Events                uint64
	JobsDone, JobsRequeued                   int
	StagedMB                                 float64
	HaloSent, HaloAcked, CkptSent, CkptAcked int
	LeaseGranted, LeaseDenied                int
	CrashCmds, Recoveries                    int
	Violations                               []string
}

func statsOf(r *shardsim.Result) scaleStats {
	return scaleStats{
		r.FinalTime, r.Rounds, r.Delivered, r.Events, r.JobsDone, r.JobsRequeued, r.StagedMB,
		r.HaloSent, r.HaloAcked, r.CkptSent, r.CkptAcked, r.LeaseGranted, r.LeaseDenied,
		r.CrashCmds, r.Recoveries, r.Violations,
	}
}

func (w *scaleWorkload) run(tel *telemetry.Telemetry, sp *spanLog, _ *meter) batch {
	var b batch
	cfg := w.cfg
	cfg.Trace = tel != nil
	b.ops++
	id := sp.begin("shardsim.RunScenario", 0)
	r := shardsim.RunScenario(cfg)
	sp.end(id)
	if len(r.Violations) > 0 {
		b.fail("scale: %d invariant violations, first: %s", len(r.Violations), r.Violations[0])
	}
	if tel != nil {
		b.traceHash = digestOf(string(r.MergedTrace()))
		r.ReplayInto(tel)
	}
	b.events, b.rounds, b.delivered = r.Events, r.Rounds, r.Delivered
	b.digest = digestOf(statsOf(r))
	return b
}

// verify reruns the scenario on the single-kernel oracle with the merged
// trace on. Its digest covers the shard-count-invariant statistics, so it
// must equal the sharded batches'; its trace hash is the one the traced
// batches and the record are held to.
func (w *scaleWorkload) verify(sp *spanLog) batch {
	var b batch
	cfg := w.cfg
	cfg.Shards, cfg.Trace = 1, true
	b.ops++
	id := sp.begin("shardsim.RunScenario/oracle", 0)
	r := shardsim.RunScenario(cfg)
	sp.end(id)
	if len(r.Violations) > 0 {
		b.fail("scale oracle: %d invariant violations", len(r.Violations))
	}
	b.digest = digestOf(statsOf(r))
	b.traceHash = digestOf(string(r.MergedTrace()))
	return b
}

// ---- serve: a seeded arrivals stream through the front door ----

// serveSpec is the open-loop arrivals stream: a diurnal wave with a flash
// crowd of interactive requests on top. It keeps the 8/4/2-node fleet busy
// enough that the front door offloads about a quarter of the requests and
// drops a few, while every broker holds a short queue and admits at a high
// rate.
const serveSpec = "wave@0-7200:rate=0.12,amp=0.4,period=1800;flash@0-7200:rate=0,peak=0.5,at=3600,hold=120,mix=int:1"

const serveRoute = "ucb"

type serveWorkload struct {
	seed    int64
	tiny    bool
	spec    string
	streams [][]frontdoor.Request
	seeds   []int64
}

const serveStreams = 12

func (w *serveWorkload) setup() error {
	streams := serveStreams
	w.spec = serveSpec
	if w.tiny {
		w.spec, streams = "poisson@0-120:rate=0.2", 1
	}
	phases, err := frontdoor.ParseArrivals(w.spec)
	if err != nil {
		return err
	}
	w.streams, w.seeds = w.streams[:0], w.seeds[:0]
	for i := 0; i < streams; i++ {
		seed := subSeed(w.seed, i)
		reqs, err := frontdoor.Generate(phases, frontdoor.DefaultClasses(), rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		w.streams = append(w.streams, reqs)
		w.seeds = append(w.seeds, seed)
	}
	// Warm-up: the batch's first stream through the fleet.
	_, err = serveStream(w.streams[0], w.seeds[0], nil)
	return err
}

func (w *serveWorkload) run(tel *telemetry.Telemetry, sp *spanLog, m *meter) batch {
	var b batch
	var stats []frontdoor.Stats
	for i, reqs := range w.streams {
		m.between()
		b.ops++
		id := sp.begin("frontdoor.serve", 0)
		s, err := serveStream(reqs, w.seeds[i], tel)
		sp.end(id)
		if err != nil {
			b.fail("serve seed %d: %v", w.seeds[i], err)
			continue
		}
		terminal := 0
		for _, c := range s.Classes {
			terminal += c.Done + c.Failed
		}
		if s.Requests != len(reqs) || s.Requests != s.Drops+terminal+s.Pending {
			b.fail("serve seed %d: conservation broken: %d generated, %d requests, %d drops, %d terminal, %d pending",
				w.seeds[i], len(reqs), s.Requests, s.Drops, terminal, s.Pending)
		}
		stats = append(stats, s)
	}
	b.digest = digestOf(stats)
	return b
}

// verify runs the batch's first stream through experiments.RunArrivals,
// the public serving entry point, and requires its report to end with the
// serving report of the benchmark's own run of that stream, so the fleet
// built here cannot drift from the standard one.
func (w *serveWorkload) verify(sp *spanLog) batch {
	var b batch
	b.ops++
	id := sp.begin("experiments.RunArrivals", 0)
	report, err := experiments.RunArrivals(w.spec, serveRoute, w.seeds[0])
	sp.end(id)
	if err != nil {
		b.fail("serve RunArrivals seed %d: %v", w.seeds[0], err)
		return b
	}
	s, err := serveStream(w.streams[0], w.seeds[0], nil)
	if err != nil {
		b.fail("serve seed %d: %v", w.seeds[0], err)
		return b
	}
	phases, err := frontdoor.ParseArrivals(w.spec)
	if err != nil {
		b.fail("serve spec: %v", err)
		return b
	}
	span := 0.0
	for _, p := range phases {
		span = math.Max(span, p.End)
	}
	own := experiments.FormatServe([]experiments.ServeResult{{
		Policy: serveRoute, Rate: float64(len(w.streams[0])) / span, Stats: s,
	}})
	if !strings.HasSuffix(report, own) {
		b.fail("serve seed %d: experiments.RunArrivals reports another outcome than the benchmark's fleet", w.seeds[0])
	}
	return b
}

// serveStream runs one request stream through the front door onto the
// standard serving fleet (experiments.DefaultServeConfig), as
// experiments.RunArrivals does, and returns the front door's ledger at
// drain. verify holds the two to the same outcome.
func serveStream(reqs []frontdoor.Request, seed int64, tel *telemetry.Telemetry) (frontdoor.Stats, error) {
	policy, err := frontdoor.ParseRoutePolicy(serveRoute)
	if err != nil {
		return frontdoor.Stats{}, err
	}
	cfg := experiments.DefaultServeConfig()
	sim := simcore.New(seed)
	sim.SetTelemetry(tel)
	fd, err := frontdoor.New(frontdoor.Config{
		Sim:     sim,
		Brokers: serveFleet(sim, cfg.NodeCounts, cfg.Tick),
		Policy:  policy,
		Seed:    seed,
	})
	if err != nil {
		return frontdoor.Stats{}, err
	}
	if err := fd.Start(reqs); err != nil {
		return frontdoor.Stats{}, err
	}
	sim.RunUntil(cfg.RunCap)
	return fd.Stats(), nil
}

// serveFleet builds the serving fleet on one kernel: one single-site grid
// per broker, each with its own GIS, depots and binder.
func serveFleet(sim *simcore.Sim, nodeCounts []int, tick float64) []frontdoor.BrokerSpec {
	specs := make([]frontdoor.BrokerSpec, 0, len(nodeCounts))
	for i, n := range nodeCounts {
		site := fmt.Sprintf("site%02d", i)
		grid := topology.NewGrid(sim)
		grid.AddSite(site, topology.GigE, topology.LANLatency)
		for _, sp := range topology.SyntheticSite(site, n) {
			grid.AddNode(sp)
		}
		g := gis.New(sim, grid)
		g.RegisterSoftwareEverywhere(binder.LocalBinderPkg, "/opt/grads/binder")
		for _, lib := range []string{"scalapack", "blas", "srs", "autopilot", "mpi"} {
			g.RegisterSoftwareEverywhere(lib, "/opt/"+lib)
		}
		st := ibp.New(sim, grid)
		st.AddDepotsEverywhere()
		specs = append(specs, frontdoor.BrokerSpec{
			Name: site,
			Config: metasched.Config{
				Sim: sim, Grid: grid, GIS: g, Storage: st, Binder: binder.New(sim, g),
				Policy: metasched.PolicyBackfill, Tick: tick,
			},
		})
	}
	return specs
}
