package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"grads/internal/shardsim"
)

// shardsOverride is the kernel count sharded experiments run with (the
// gradsim -shards flag). 1 — the single-kernel determinism oracle — is the
// default; any other value selects the conservatively synchronized
// multi-kernel path, which produces byte-identical traces (see
// internal/shardsim).
var shardsOverride = 1

// SetShards selects how many shard kernels the sharded experiments
// (scale-smoke) run with. Values below 1 reset to the single-kernel oracle.
func SetShards(n int) {
	if n < 1 {
		n = 1
	}
	shardsOverride = n
}

// ScaleVariant is one row of the scaling curve: the sharded kernel at one
// shard count over the identical 10k-node workload, with its wall-clock time
// and its virtual end state (RunScaleCurve checks it equals the x1 run's).
type ScaleVariant struct {
	Shards int
	Wall   time.Duration
	Result *shardsim.Result
}

// RunScaleCurve runs the 10k-node synthetic workload (16 mega-sites x 640
// nodes; see shardsim.ScaleConfig) on the sharded kernel at 1, 2, 4 and 8
// shards, measuring wall-clock time. The virtual end state of every run must
// be identical to the x1 run's. Wall-clock numbers vary by host, so the
// scale experiment is excluded from `gradsim -exp all` and from the
// determinism contract — BENCH_shard.json is its CI-gated form.
func RunScaleCurve(seed int64) ([]ScaleVariant, error) {
	variants := []ScaleVariant{{Shards: 1}, {Shards: 2}, {Shards: 4}, {Shards: 8}}
	var oracle *shardsim.Result
	for i := range variants {
		v := &variants[i]
		cfg := shardsim.ScaleConfig(seed)
		cfg.Shards = v.Shards
		start := time.Now()
		r := shardsim.RunScenario(cfg)
		v.Wall = time.Since(start)
		v.Result = r
		if len(r.Violations) > 0 {
			return nil, fmt.Errorf("scale: sharded x%d violated invariants: %s",
				v.Shards, strings.Join(r.Violations, "; "))
		}
		if oracle == nil {
			oracle = r
		}
		if r.FinalTime != oracle.FinalTime || r.Events != oracle.Events ||
			r.Rounds != oracle.Rounds || r.Delivered != oracle.Delivered ||
			r.JobsDone != oracle.JobsDone || r.JobsRequeued != oracle.JobsRequeued {
			return nil, fmt.Errorf("scale: sharded x%d diverged from the sharded x1 oracle", v.Shards)
		}
	}
	return variants, nil
}

// FormatScale renders the scaling curve.
func FormatScale(vs []ScaleVariant) string {
	base := vs[0].Wall.Seconds()
	t := &Table{Header: []string{"variant", "shards", "wall_s", "speedup", "events", "rounds", "jobs_done", "stats"}}
	for _, v := range vs {
		t.Add(fmt.Sprintf("sharded x%d", v.Shards), fmt.Sprint(v.Shards), fmt.Sprintf("%.2f", v.Wall.Seconds()),
			fmt.Sprintf("%.2fx", base/v.Wall.Seconds()),
			fmt.Sprint(v.Result.Events), fmt.Sprint(v.Result.Rounds),
			fmt.Sprint(v.Result.JobsDone), "match")
	}
	r := vs[0].Result
	return t.String() + fmt.Sprintf(
		"\n10240 nodes over 16 sites; %d jobs done, %d requeued, %.0f MB staged,\n"+
			"%d crash commands, %d recoveries. speedup is the x1 wall time over the\n"+
			"variant's; shards run on one goroutine and every row is byte-equivalent.\n",
		r.JobsDone, r.JobsRequeued, r.StagedMB, r.CrashCmds, r.Recoveries)
}

// scaleSmokeCase names one seeded smoke workload of the shard-equivalence
// suite.
type scaleSmokeCase struct {
	name string
	cfg  shardsim.ScenarioConfig
}

// RunScaleSmoke runs the three seeded smoke workloads (chaos, contention,
// soak) on the sharded kernel at the configured shard count (SetShards /
// gradsim -shards) and reports their virtual end state plus an FNV-64a hash
// of the canonical merged trace. Every line is shard-count-invariant: the CI
// shard-equivalence job diffs the full stdout and the replayed JSONL of
// `-shards 1` against `-shards 4`. When a telemetry hub is installed the
// merged traces are replayed into it, so -trace-jsonl captures the exact
// event stream whose hash is printed.
func RunScaleSmoke(seed int64) (string, error) {
	cases := []scaleSmokeCase{
		{"chaos", shardsim.ChaosSmokeConfig(pick(seed, 11))},
		{"contention", shardsim.ContentionSmokeConfig(pick(seed, 23))},
		{"soak", shardsim.SoakSmokeConfig(pick(seed, 5))},
	}
	t := &Table{Header: []string{"workload", "seed", "vtime_s", "events", "rounds", "delivered",
		"jobs", "requeues", "acks", "leases", "trace_fnv64a", "trace_bytes"}}
	for _, c := range cases {
		c.cfg.Shards = shardsOverride
		r := shardsim.RunScenario(c.cfg)
		if len(r.Violations) > 0 {
			return "", fmt.Errorf("scale-smoke %s: invariants violated: %s",
				c.name, strings.Join(r.Violations, "; "))
		}
		trace := r.MergedTrace()
		h := fnv.New64a()
		h.Write(trace)
		t.Add(c.name, fmt.Sprint(c.cfg.Seed), fmt.Sprintf("%.3f", r.FinalTime),
			fmt.Sprint(r.Events), fmt.Sprint(r.Rounds), fmt.Sprint(r.Delivered),
			fmt.Sprint(r.JobsDone), fmt.Sprint(r.JobsRequeued),
			fmt.Sprintf("%d+%d", r.HaloAcked, r.CkptAcked),
			fmt.Sprintf("%d/%d", r.LeaseGranted, r.LeaseDenied),
			fmt.Sprintf("%016x", h.Sum64()), fmt.Sprint(len(trace)))
		if sharedTel != nil {
			r.ReplayInto(sharedTel)
		}
	}
	return t.String(), nil
}

// pick resolves a smoke case's seed: the override when set, else the default.
func pick(override, def int64) int64 {
	if override != 0 {
		return override
	}
	return def
}
