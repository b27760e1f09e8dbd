package shardsim

import "testing"

// The shard-scaling benchmarks run the full 10k-node ScaleConfig workload
// (16 mega-sites x 640 nodes, staging-heavy) to quiescence, tracing off, on
// per-site fabrics with N shard kernels. The kernels run one after another
// on one goroutine, so N changes only the barrier bookkeeping per round;
// BENCH_shard.json gates ShardScale4 against ShardScale1 to hold that
// overhead down. The per-site fabrics, not the shard count, carry the
// speedup; TestScaleWarmupFabricsIsolated pins their solver work.
func benchScale(b *testing.B, shards int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ScaleConfig(1)
		cfg.Shards = shards
		r := RunScenario(cfg)
		if len(r.Violations) > 0 {
			b.Fatalf("invariants violated: %v", r.Violations)
		}
	}
}

func BenchmarkShardScale1(b *testing.B) { benchScale(b, 1) }
func BenchmarkShardScale2(b *testing.B) { benchScale(b, 2) }
func BenchmarkShardScale4(b *testing.B) { benchScale(b, 4) }
func BenchmarkShardScale8(b *testing.B) { benchScale(b, 8) }
