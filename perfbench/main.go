// Command perfbench is the repository benchmark. It runs one workload —
// soak, sched, scale or serve — as a batch generated from a seed, drives
// each layer through its public entry points, checks every simulated
// outcome, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (normalised host CPU
// time, set-up time, allocation, peak memory), measured with tracing off;
// wall time and raw CPU time are printed beside them. With -trace 1
// the run also attaches a telemetry hub and a CPU profile and reports the
// per-layer split instead. Run it from the repository root through
// run.py, which builds it:
//
//	python3 perfbench/run.py --workload soak --seed 1 --seconds 25 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Set-up is repeated until it has taken setupCPU process CPU seconds in
// all, and at least minSetupRuns times; setup_s is the median. It is CPU
// time normalised by the reference kernel, as cpu_s is.
const (
	setupCPU     = 2.0
	minSetupRuns = 5
	// The reference kernel (about 0.065 s) is timed around each group of
	// set-ups of at least setupGroupCPU, so it adds a fifth or less.
	setupGroupCPU = 0.3
)

// endToEnd lists the end-to-end metrics, reported with tracing off. Host
// time is gated as cpu_s, the process's CPU time per batch normalised by a
// reference kernel (reference.go): on a shared host, wall time also counts
// the CPU the host gives other tenants, and even raw CPU time slows by up
// to 2x when other tenants load the memory system; the spread of either
// across runs exceeds any bound a gate can hold. wall_s and raw_cpu_s are
// printed beside it but not reported in the result.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run. Every workload
// reports all of them; a layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"metasched.cpu_frac", "fraction"}, {"metasched.self_frac", "fraction"},
		{"cop.cpu_frac", "fraction"}, {"metasched.admissions", "count"},
		{"metasched.readmit_ratio", "ratio"}, {"metasched.requeues", "count"},
		{"lease.grants", "count"},
		{"perfmodel.cpu_frac", "fraction"}, {"core.cpu_frac", "fraction"},
		{"listsched.cpu_frac", "fraction"}, {"listsched.schedules", "count"},
		{"perfmodel.memo_hit_ratio", "ratio"},
		{"sched.plans", "count"}, {"sched.plan_p50_ms", "ms"}, {"sched.plan_tail_ms", "ms"},
	}
	for _, c := range schedClassNames {
		ms = append(ms, metricDef{"sched." + c + ".plan_p50_ms", "ms"}, metricDef{"sched." + c + ".memo_hit_ratio", "ratio"})
	}
	for _, h := range schedHeuristics {
		ms = append(ms, metricDef{"sched." + h + ".plan_p50_ms", "ms"})
	}
	return append(ms,
		metricDef{"netsim.cpu_frac", "fraction"}, metricDef{"netsim.reallocs", "count"},
		metricDef{"netsim.flows", "count"}, metricDef{"shardsim.cpu_frac", "fraction"},
		metricDef{"shardsim.rounds", "count"}, metricDef{"shardsim.events_per_round", "events"},
		metricDef{"shardsim.delivered", "count"},
		metricDef{"simcore.self_frac", "fraction"}, metricDef{"simcore.events", "count"},
		metricDef{"simcore.proc_switches", "count"}, metricDef{"simcore.ns_per_event", "ns"},
		metricDef{"cpusim.share_changes", "count"},
		metricDef{"frontdoor.cpu_frac", "fraction"}, metricDef{"frontdoor.requests", "count"},
		metricDef{"frontdoor.offloads", "count"}, metricDef{"frontdoor.drops", "count"},
		metricDef{"runtime.gc_cpu_frac", "fraction"}, metricDef{"runtime.mallocs", "count"},
		metricDef{"telemetry.bytes", "bytes"}, metricDef{"trace.overhead_frac", "fraction"},
	)
}()

// profiledLayers are the grads/internal packages whose cumulative CPU share
// is a per-layer metric (<layer>.cpu_frac). The kernel's cumulative share
// contains every simulated callback, so simcore reports its self share.
var profiledLayers = []string{"metasched", "cop", "perfmodel", "core", "listsched", "netsim", "shardsim", "frontdoor"}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

//go:embed digests.json
var digestsJSON []byte

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // the self-test size
	// digests maps "<workload>/<seed>" (and "scale-trace/<seed>") to the
	// recorded digest of that batch; perturb corrupts this run's entry
	// (the self-test's proof that the check can fail).
	digests map[string]string
	perturb bool
	out     io.Writer // human-readable report lines
	spans   string    // where a traced run writes its spans ("" = nowhere)
	profile string    // where a traced run writes its CPU profile
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	record := flag.Int("record", 0, "print the digests of seeds 0..N-1 as JSON and exit")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	o.trace = traceFlag == 1
	if err := json.Unmarshal(digestsJSON, &o.digests); err != nil {
		fatal(fmt.Errorf("digests.json: %w", err))
	}
	o.out = os.Stdout
	dir := filepath.Join(".bench_build", "perfbench")
	o.spans = filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	o.profile = filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, o.seed))
	if *record > 0 {
		if err := recordDigests(o, *record); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// tally accumulates operations and failures over every batch of a run and
// holds each batch to the run's first digest and the recorded one.
type tally struct {
	o         options
	attempted int
	failed    int
	first     map[string]string
	notes     []string
}

func (t *tally) add(key string, b batch) {
	if b.ops == 0 && b.digest != "" {
		b.ops = 1 // a bare digest comparison is one operation
	}
	t.attempted += b.ops
	t.failed += b.failed
	t.notes = append(t.notes, b.notes...)
	if b.digest == "" {
		return
	}
	if t.first == nil {
		t.first = map[string]string{}
	}
	want, ok := t.o.digests[key]
	if t.o.perturb && ok {
		want = perturbed(want)
	}
	mismatch := ""
	switch {
	case ok && b.digest != want:
		mismatch = fmt.Sprintf("%s: digest %s, recorded %s", key, b.digest, want)
	case t.first[key] != "" && b.digest != t.first[key]:
		mismatch = fmt.Sprintf("%s: digest %s differs from this run's first %s", key, b.digest, t.first[key])
	}
	if t.first[key] == "" {
		t.first[key] = b.digest
	}
	if mismatch != "" {
		// A changed simulated statistic fails every operation of the batch.
		t.failed += b.ops - b.failed
		t.notes = append(t.notes, mismatch)
	}
}

// keys returns the digest keys of the run's batches and merged traces.
func (t *tally) keys() (batchKey, traceKey string) {
	return fmt.Sprintf("%s/%d", t.o.workload, t.o.seed), fmt.Sprintf("scale-trace/%d", t.o.seed)
}

// addBatch adds one batch, holding its digest and any merged-trace hash to
// their records.
func (t *tally) addBatch(b batch) {
	key, traceKey := t.keys()
	t.add(key, b)
	if b.traceHash != "" {
		t.add(traceKey, batch{digest: b.traceHash})
	}
}

// perturbed changes the first hex digit of a (non-empty) digest.
func perturbed(d string) string {
	c := byte('0')
	if d[0] == '0' {
		c = '1'
	}
	return string(c) + d[1:]
}

// rep is one measured batch.
type rep struct {
	wall    time.Duration // the batch's own wall time
	elapsed time.Duration // wall time with the reference timings
	alloc   uint64        // bytes allocated
	mallocs uint64
	cpu     float64 // process CPU seconds, every thread
	normCPU float64 // cpu normalised by the reference kernel (reference.go)
	gcCPU   float64 // GC CPU seconds
	busyCPU float64 // non-idle CPU seconds
	rss     uint64  // peak resident bytes, 0 when unknown
	b       batch
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func u64(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func f64(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// measure runs one batch. With a reference timer (untraced runs only) the
// batch is measured in segments of segmentOps operations, and each
// segment's CPU time is normalised by the reference kernel timed around it
// (reference.go): host slowdowns come and go within a batch. Every segment
// starts from a collected, returned heap with the resident-set peak reset,
// so the reference kernel's own memory is never counted.
func measure(w workload, tel *tracedHub, sp *spanLog, ref *refTimer, segmentOps int) rep {
	t0 := time.Now()
	m := &meter{ref: ref, every: max(segmentOps, 1)}
	m.begin()
	var b batch
	if tel != nil {
		b = w.run(tel.tel, sp, m)
	} else {
		b = w.run(nil, sp, m)
	}
	m.end()
	m.r.b = b
	m.r.elapsed = time.Since(t0)
	return m.r
}

// meter accumulates one batch's measurements over its segments.
type meter struct {
	ref   *refTimer
	every int // operations per segment
	ops   int // operations begun
	r     rep
	m0    []metrics.Sample
	c0    float64
	t0    time.Time
}

func (m *meter) begin() {
	debug.FreeOSMemory()
	resetPeakRSS()
	m.m0 = readRuntime()
	m.c0 = cpuSeconds()
	m.t0 = time.Now()
}

func (m *meter) end() {
	wall := time.Since(m.t0)
	cpu := cpuSeconds() - m.c0
	m1 := readRuntime()
	m.r.wall += wall
	m.r.cpu += cpu
	m.r.alloc += u64(m1[0]) - u64(m.m0[0])
	m.r.mallocs += u64(m1[1]) - u64(m.m0[1])
	m.r.gcCPU += f64(m1[2]) - f64(m.m0[2])
	m.r.busyCPU += (f64(m1[3]) - f64(m1[4])) - (f64(m.m0[3]) - f64(m.m0[4]))
	m.r.rss = max(m.r.rss, peakRSS())
	if m.ref != nil {
		m.r.normCPU += cpu * m.ref.scale()
	}
}

// between is called by a workload before each operation of a batch; it
// closes the current segment when that holds m.every operations. It does
// nothing without a reference timer (or on a nil meter).
func (m *meter) between() {
	if m == nil || m.ref == nil {
		return
	}
	m.ops++
	if m.ops > 1 && (m.ops-1)%m.every == 0 {
		m.end()
		m.begin()
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (Linux; a no-op elsewhere, when peakRSS then reads the process peak).
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSS reads the resident-set high-water mark in bytes.
func peakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseUint(f[0], 10, 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// setupWorkload builds the workload from scratch repeatedly (see setupCPU)
// and keeps the last instance; it returns the CPU seconds of each set-up,
// normalised by the reference kernel timed around each group of set-ups
// of at least setupGroupCPU CPU seconds. The self-test size sets up
// minSetupRuns times only.
func setupWorkload(o options) (workload, []float64, error) {
	var w workload
	var times, group []float64
	total, groupCPU := 0.0, 0.0
	ref := newRefTimer(o.workload)
	flush := func() {
		f := ref.scale()
		for _, dt := range group {
			times = append(times, dt*f)
		}
		group, groupCPU = group[:0], 0
	}
	for len(times)+len(group) < minSetupRuns || (!o.tiny && total < setupCPU) {
		var err error
		w, err = newWorkload(o.workload, o.seed, o.tiny)
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		c0 := cpuSeconds()
		if err := w.setup(); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		dt := cpuSeconds() - c0
		group = append(group, dt)
		total, groupCPU = total+dt, groupCPU+dt
		if groupCPU >= setupGroupCPU {
			flush()
		}
	}
	if len(group) > 0 {
		flush()
	}
	return w, times, nil
}

func run(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procsFor(o.workload)))
	w, setupTimes, err := setupWorkload(o)
	if err != nil {
		return nil, err
	}
	t := &tally{o: o}
	key, traceKey := t.keys()

	// Untraced batches: the whole budget, or half of it in a traced run,
	// where a CPU profile samples them for the per-layer split (sampling
	// these batches keeps the telemetry hub's own cost out of the split).
	budget := time.Duration(o.seconds * float64(time.Second))
	var prof *os.File
	if o.trace {
		budget /= 2
		runtime.GC()
		if err := os.MkdirAll(filepath.Dir(o.profile), 0o755); err != nil {
			return nil, err
		}
		if prof, err = os.Create(o.profile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var plain []rep
	var ref *refTimer // none under the profile: it would sample the kernel
	if !o.trace {
		ref = newRefTimer(o.workload)
	}
	for start := time.Now(); len(plain) == 0 || fits(start, budget, plain); {
		r := measure(w, nil, nil, ref, segmentOps[o.workload])
		t.addBatch(r.b)
		plain = append(plain, r)
	}

	// Traced batches: a telemetry hub per batch, counters read through
	// its public API.
	var traced []rep
	var hub *tracedHub
	var telBytes int64
	var shares layerShares
	spans := newSpanLog()
	if o.trace {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		samples, err := profileStacks(o.profile)
		if err != nil {
			return nil, err
		}
		shares = attribute(samples)
		for start := time.Now(); len(traced) == 0 || fits(start, budget, traced); {
			h := newTracedHub()
			r := measure(w, h, spans, nil, 0)
			n, err := h.close()
			if err != nil {
				return nil, err
			}
			if hub == nil {
				hub, telBytes = h, n
			}
			t.addBatch(r.b)
			traced = append(traced, r)
		}
	}

	// One-off cross-checks.
	t.addBatch(w.verify(spans))

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	out := o.out
	fmt.Fprintf(out, "perfbench %s seed=%d tiny=%v trace=%v gomaxprocs=%d batches=%d+%d ops/batch=%d\n",
		o.workload, o.seed, o.tiny, o.trace, runtime.GOMAXPROCS(0), len(plain), len(traced), plain[0].b.ops)
	for _, n := range t.notes {
		fmt.Fprintln(out, "FAIL", n)
	}
	fmt.Fprintf(out, "digest %s %s\n", key, t.first[key])
	if h := t.first[traceKey]; h != "" {
		fmt.Fprintf(out, "digest %s %s\n", traceKey, h)
	}
	fmt.Fprintf(out, "%-28s %12.6f %-8s (%d failed of %d attempted)\n", "fail_ratio",
		float64(t.failed)/float64(t.attempted), "ratio", t.failed, t.attempted)

	if plans := plansOf(plain); len(plans) > 0 {
		p50, tail, pct := planStats(plans, len(plain[0].b.plans))
		fmt.Fprintf(out, "%-28s %12.6f %-8s (n=%d plans)\n", "plan_p50_ms", p50, "ms", len(plans))
		fmt.Fprintf(out, "%-28s %12.6f %-8s (p%g, n=%d plans)\n", "plan_tail_ms", tail, "ms", pct, len(plans))
	}
	if !o.trace {
		e2e := map[string]float64{}
		samples := endToEndSamples(plain, setupTimes)
		for _, d := range append(endToEnd, metricDef{"wall_s", "s"}, metricDef{"raw_cpu_s", "s"}) {
			xs := samples[d.name]
			sort.Float64s(xs)
			e2e[d.name] = median(xs)
			fmt.Fprintf(out, "  %-26s q1 %.6f  q3 %.6f  n=%d\n", d.name, quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
		}
		fmt.Fprintf(out, "%-28s %12.6f %s (printed, not gated)\n", "wall_s", e2e["wall_s"], "s")
		fmt.Fprintf(out, "%-28s %12.6f %s (printed, not gated)\n", "raw_cpu_s", e2e["raw_cpu_s"], "s")
		fmt.Fprintf(out, "%-28s %12.6f %s (printed, not gated; %d timings, q1 %.6f q3 %.6f)\n", "reference_s",
			median(ref.times), "s", len(ref.times), quantile(sorted(ref.times), 0.25), quantile(sorted(ref.times), 0.75))
		report(out, res, endToEnd, e2e)
		return res, nil
	}

	layer := perLayerMetrics(plain, traced, hub, telBytes, shares)
	report(out, res, perLayer, layer)
	fmt.Fprintf(out, "profile of the untraced batches: %d samples; cumulative / self share per grads/internal layer:\n", shares.samples)
	top := ""
	for _, l := range ranked(shares.cum) {
		fmt.Fprintf(out, "  %-14s %6.3f %6.3f\n", l, shares.cum[l], shares.self[l])
		// Every simulated callback runs under the kernel's dispatch loop,
		// so simcore's cumulative share is not a layer's own cost.
		if top == "" && l != "simcore" {
			top = l
		}
	}
	fmt.Fprintf(out, "target layer (largest cumulative share, kernel excluded): %s\n", top)
	if o.spans != "" {
		if err := spans.write(o.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		}
	}
	return res, nil
}

// fits reports whether another batch, as long as the last one, still ends
// within the budget, so a run never overshoots its measuring time by
// most of a batch.
func fits(start time.Time, budget time.Duration, done []rep) bool {
	return time.Since(start)+done[len(done)-1].elapsed <= budget
}

// report prints every listed metric and copies it into the result.
func report(out io.Writer, res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(out, "%-28s %12.6f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

// endToEndSamples returns each end-to-end metric's samples: one per
// untraced batch, and one per set-up for setup_s.
func endToEndSamples(plain []rep, setupTimes []float64) map[string][]float64 {
	m := map[string][]float64{"setup_s": setupTimes}
	for _, r := range plain {
		m["wall_s"] = append(m["wall_s"], r.wall.Seconds())
		m["cpu_s"] = append(m["cpu_s"], r.normCPU)
		m["raw_cpu_s"] = append(m["raw_cpu_s"], r.cpu)
		m["alloc_mb"] = append(m["alloc_mb"], float64(r.alloc)/1e6)
		m["max_rss_mb"] = append(m["max_rss_mb"], float64(r.rss)/1e6)
	}
	return m
}

func perLayerMetrics(plain, traced []rep, hub *tracedHub, telBytes int64, shares layerShares) map[string]float64 {
	m := map[string]float64{}
	for _, l := range profiledLayers {
		m[l+".cpu_frac"] = shares.cum[l]
	}
	m["metasched.self_frac"] = shares.self["metasched"]
	m["simcore.self_frac"] = shares.self["simcore"]

	b := traced[0].b
	m["metasched.admissions"] = hub.counter("metasched", "admissions")
	if subs := hub.counter("metasched", "submissions"); subs > 0 {
		m["metasched.readmit_ratio"] = m["metasched.admissions"] / subs
	}
	m["metasched.requeues"] = hub.counter("metasched", "requeues")
	m["lease.grants"] = hub.counter("lease", "grants")
	m["listsched.schedules"] = hub.counter("listsched", "schedules")

	if plans := plansOf(traced); len(plans) > 0 {
		p50, tail, _ := planStats(plans, len(b.plans))
		m["sched.plans"] = float64(len(b.plans))
		m["sched.plan_p50_ms"], m["sched.plan_tail_ms"] = p50, tail
		for _, c := range schedClassNames {
			m["sched."+c+".plan_p50_ms"] = planP50(plans, func(p plan) bool { return p.class == c })
			hm := b.memo[c]
			if hm[0]+hm[1] > 0 {
				m["sched."+c+".memo_hit_ratio"] = float64(hm[0]) / float64(hm[0]+hm[1])
			}
		}
		for _, h := range schedHeuristics {
			m["sched."+h+".plan_p50_ms"] = planP50(plans, func(p plan) bool { return p.heuristic == h })
		}
		var hits, total uint64
		for _, hm := range b.memo {
			hits, total = hits+hm[0], total+hm[0]+hm[1]
		}
		if total > 0 {
			m["perfmodel.memo_hit_ratio"] = float64(hits) / float64(total)
		}
	}

	m["netsim.reallocs"] = hub.counter("netsim", "reallocs")
	m["netsim.flows"] = hub.counter("netsim", "flows_completed") + hub.counter("netsim", "flows_killed")
	if m["netsim.flows"] == 0 {
		// The sharded scenario's kernels carry no hub; each staging
		// transfer is one LAN flow and is traced as a "stage" event.
		m["netsim.flows"] = float64(hub.events.byComp["stage"])
	}
	m["shardsim.rounds"] = float64(b.rounds)
	m["shardsim.delivered"] = float64(b.delivered)
	events := float64(b.events)
	if events == 0 {
		events = hub.counter("simcore", "events_fired")
	}
	m["simcore.events"] = events
	if b.rounds > 0 {
		m["shardsim.events_per_round"] = events / float64(b.rounds)
	}
	m["simcore.proc_switches"] = hub.counter("simcore", "proc_switches")
	var walls []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
	}
	plainWall := median(walls)
	if events > 0 {
		m["simcore.ns_per_event"] = plainWall * 1e9 / events
	}
	m["cpusim.share_changes"] = hub.counter("cpusim", "share_changes")
	m["frontdoor.requests"] = hub.counter("frontdoor", "requests")
	m["frontdoor.offloads"] = hub.counter("frontdoor", "offloads")
	m["frontdoor.drops"] = hub.counter("frontdoor", "drops")

	var gc, mallocs []float64
	for _, r := range plain {
		if r.busyCPU > 0 {
			gc = append(gc, r.gcCPU/r.busyCPU)
		}
		mallocs = append(mallocs, float64(r.mallocs))
	}
	m["runtime.gc_cpu_frac"] = median(gc)
	m["runtime.mallocs"] = median(mallocs)

	m["telemetry.bytes"] = float64(telBytes)
	var twalls []float64
	for _, r := range traced {
		twalls = append(twalls, r.wall.Seconds())
	}
	m["trace.overhead_frac"] = median(twalls)/plainWall - 1
	return m
}

func plansOf(reps []rep) []plan {
	var ps []plan
	for _, r := range reps {
		ps = append(ps, r.b.plans...)
	}
	return ps
}

// planStats returns the median and tail plan latency in ms. The tail is
// the highest of p99.9/p99/p95/p90 that leaves at least ten of one
// batch's plans beyond it, so the reported percentile does not depend on
// how many batches fitted in the run.
func planStats(plans []plan, perBatch int) (p50, tail, pct float64) {
	lat := make([]float64, len(plans))
	for i, p := range plans {
		lat[i] = float64(p.latency) / 1e6
	}
	sort.Float64s(lat)
	pct = 50
	for _, q := range []float64{99.9, 99, 95, 90} {
		if float64(perBatch)*(100-q)/100 >= 10 {
			pct = q
			break
		}
	}
	return quantile(lat, 0.5), quantile(lat, pct/100), pct
}

func planP50(plans []plan, keep func(plan) bool) float64 {
	var lat []float64
	for _, p := range plans {
		if keep(p) {
			lat = append(lat, float64(p.latency)/1e6)
		}
	}
	sort.Float64s(lat)
	return quantile(lat, 0.5)
}

// quantile is the nearest-rank quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// recordDigests prints the digests of seeds 0..n-1 for digests.json.
func recordDigests(o options, n int) error {
	rec := map[string]string{}
	for seed := int64(0); seed < int64(n); seed++ {
		w, err := newWorkload(o.workload, seed, o.tiny)
		if err != nil {
			return err
		}
		if err := w.setup(); err != nil {
			return err
		}
		b := w.run(nil, nil, nil)
		if b.failed > 0 {
			return fmt.Errorf("seed %d: %s", seed, b.notes[0])
		}
		rec[fmt.Sprintf("%s/%d", o.workload, seed)] = b.digest
		v := w.verify(nil)
		if v.failed > 0 {
			return fmt.Errorf("seed %d: %s", seed, v.notes[0])
		}
		if v.digest != "" && v.digest != b.digest {
			return fmt.Errorf("seed %d: cross-check digest %s differs from the batch's %s", seed, v.digest, b.digest)
		}
		if v.traceHash != "" {
			rec[fmt.Sprintf("scale-trace/%d", seed)] = v.traceHash
		}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall time
// it does not count time the host gives to other tenants.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
