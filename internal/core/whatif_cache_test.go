package core

import (
	"context"
	"testing"

	"autostats/internal/optimizer"
	"autostats/internal/workload"
)

// TestShrinkingProbesDoNotPollutePlanCache is the what-if pollution
// regression test: a tuning run's ignore-subset probes optimize under
// hypothetical statistics configurations, so they must bypass the plan
// cache entirely — no insertions (which would evict the production
// workload's plans) and no miss-count inflation (which would wreck the hit
// rate the cache is sized by). Probes surface as cache bypasses instead.
func TestShrinkingProbesDoNotPollutePlanCache(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	cache := optimizer.NewPlanCache(256)
	sess.SetPlanCache(cache)

	w, err := workload.Generate(db, workload.Config{Count: 20, Complexity: workload.Complex, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	queries := w.Queries()
	for _, c := range WorkloadCandidates(queries, CandidateStats) {
		if _, err := mgr.Create(c.Table, c.Columns); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the cache with the production workload.
	for _, q := range queries {
		if _, err := sess.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	warm := cache.Stats()
	if warm.Size == 0 {
		t.Fatal("warm-up inserted no plans; the test needs a populated cache")
	}

	sr, err := ShrinkingSetCtx(context.Background(), sess, queries, nil, ExecutionTree{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.OptimizerCalls <= len(queries) {
		t.Fatalf("tuner made %d optimizer calls; expected probe rounds beyond the %d baselines", sr.OptimizerCalls, len(queries))
	}

	after := cache.Stats()
	if after.Size != warm.Size {
		t.Errorf("tuner changed the cache population: %d -> %d entries", warm.Size, after.Size)
	}
	if after.Evictions != warm.Evictions {
		t.Errorf("tuner evicted cached workload plans: evictions %d -> %d", warm.Evictions, after.Evictions)
	}
	if after.Misses != warm.Misses {
		t.Errorf("probes were counted as cache misses: %d -> %d", warm.Misses, after.Misses)
	}
	// The baseline optimizations ran with no ignored statistics against the
	// warm cache, so they hit; every ignore-subset probe is a bypass.
	if after.Hits <= warm.Hits {
		t.Errorf("baseline re-optimizations did not hit the warm cache: hits %d -> %d", warm.Hits, after.Hits)
	}
	bypasses := sess.Obs().Snapshot().Counters["degraded.plancache_bypasses"]
	probes := sr.OptimizerCalls - len(queries)
	if bypasses != int64(probes) {
		t.Errorf("plancache_bypasses = %d, want one per probe (%d)", bypasses, probes)
	}
}
