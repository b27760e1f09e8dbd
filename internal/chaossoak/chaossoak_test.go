package chaossoak

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"grads/internal/faultinject"
	"grads/internal/telemetry"
)

// runSmoke executes one smoke soak with a JSONL sink attached and returns
// the result plus the raw trace bytes.
func runSmoke(t *testing.T, cfg Config) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tel := telemetry.New()
	tel.AddSink(telemetry.NewJSONL(&buf))
	cfg.Telemetry = tel
	r, err := Run(cfg)
	tel.Close()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r, buf.Bytes()
}

func TestSmokeSoakCleanAndDeterministic(t *testing.T) {
	r1, trace1 := runSmoke(t, SmokeConfig(1))
	r2, trace2 := runSmoke(t, SmokeConfig(1))

	if !r1.Drained {
		t.Fatalf("smoke soak did not drain before RunCap (elapsed %v)", r1.Elapsed)
	}
	if len(r1.Violations) != 0 {
		t.Fatalf("invariant violations on clean run: %+v", r1.Violations)
	}
	if r1.LostJobs != 0 {
		t.Fatalf("lost jobs = %d, want 0", r1.LostJobs)
	}
	if got := r1.Done + r1.Failed + r1.Quarantined; got != r1.Jobs {
		t.Fatalf("terminal jobs = %d, want %d", got, r1.Jobs)
	}
	if r1.KernelEvents == 0 || r1.Checks == 0 {
		t.Fatalf("degenerate run: %d kernel events, %d sweeps", r1.KernelEvents, r1.Checks)
	}
	if r1.Injected == 0 {
		t.Fatal("fault schedule injected nothing — the soak exercised no failures")
	}

	// The soak is a falsifier only if reruns are exactly reproducible:
	// same seed, same result, byte-identical telemetry stream.
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same-seed results differ:\n%+v\n%+v", r1, r2)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("same-seed JSONL traces differ: %d vs %d bytes", len(trace1), len(trace2))
	}
}

func TestSmokeSoakSpecParsesAndSeedsDiverge(t *testing.T) {
	r1, _ := runSmoke(t, SmokeConfig(1))
	if _, err := faultinject.ParseSpec(r1.Spec); err != nil {
		t.Fatalf("Result.Spec does not round-trip through ParseSpec: %v", err)
	}

	// A different seed must produce a different fault schedule — and a run
	// demanding an absurd kernel-event floor must report a scale violation
	// rather than silently passing.
	cfg := SmokeConfig(2)
	cfg.MinKernelEvents = 1 << 60
	r2, _ := runSmoke(t, cfg)
	if r2.Spec == r1.Spec {
		t.Error("seeds 1 and 2 generated identical fault schedules")
	}
	found := false
	for _, v := range r2.Violations {
		if v.Invariant == "scale" {
			found = true
		} else {
			t.Errorf("unexpected violation %+v", v)
		}
	}
	if !found {
		t.Error("MinKernelEvents floor not reported as a scale violation")
	}
}

func TestTruncatedRunReportsLiveness(t *testing.T) {
	cfg := SmokeConfig(1)
	cfg.RunCap = 500 // far below the drain point: jobs must still be in flight
	r, _ := runSmoke(t, cfg)
	if r.Drained {
		t.Fatal("truncated run claims to have drained")
	}
	var liveness *Violation
	for i := range r.Violations {
		if r.Violations[i].Invariant == "liveness" {
			liveness = &r.Violations[i]
		}
	}
	if liveness == nil {
		t.Fatalf("no liveness violation on truncated run; got %+v", r.Violations)
	}
	if !strings.Contains(liveness.Detail, "(") {
		t.Errorf("liveness detail should name stuck jobs with states, got %q", liveness.Detail)
	}
	// Tracked-but-unfinished jobs are stalled, not lost: the liveness
	// violation owns them, LostJobs stays an accounting invariant.
	if r.LostJobs != 0 {
		t.Errorf("truncated run counted stalled jobs as lost: %d", r.LostJobs)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Jobs = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.RunCap = -1 },
		func(c *Config) { c.TickEvery = 0 },
	} {
		cfg := SmokeConfig(1)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted invalid config %+v", cfg)
		}
	}
}

// TestBrokerRoundWorkCeilings holds the broker's admission-round work on
// the seed-1 smoke soak (rounds run, mapper calls made) to exact measured
// ceilings. The simulation is deterministic, so any growth is a regression
// in the admission round, not noise.
func TestBrokerRoundWorkCeilings(t *testing.T) {
	const maxRounds, maxPlacements = 1217, 470
	tel := telemetry.New()
	cfg := SmokeConfig(1)
	cfg.Telemetry = tel
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rounds := tel.Counter("metasched", "rounds").Value()
	placements := tel.Counter("metasched", "placements").Value()
	t.Logf("rounds=%d placements=%d", rounds, placements)
	if rounds == 0 || rounds > maxRounds {
		t.Errorf("metasched rounds = %d, want 1..%d", rounds, maxRounds)
	}
	if placements == 0 || placements > maxPlacements {
		t.Errorf("metasched placements = %d, want 1..%d", placements, maxPlacements)
	}
}
