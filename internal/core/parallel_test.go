package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"autostats/internal/optimizer"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

var tuningWorkloadSQL = []string{
	"SELECT * FROM lineitem WHERE l_quantity > 45",
	"SELECT * FROM orders WHERE o_totalprice < 1000",
	"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_discount > 0.05",
	"SELECT * FROM customer WHERE c_acctbal > 9000",
	"SELECT * FROM lineitem, partsupp WHERE l_partkey = ps_partkey AND l_quantity < 5",
	"SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 50000",
}

func tuningWorkload(t testing.TB, db *storage.Database) []*querySelect {
	t.Helper()
	qs := make([]*querySelect, 0, len(tuningWorkloadSQL))
	for _, sql := range tuningWorkloadSQL {
		qs = append(qs, mustParse(t, db, sql))
	}
	return qs
}

// TestWorkloadP1MatchesPerQueryLoop: at parallelism 1 the workload driver is
// §4.3's "invoke MNSA for each query": a loop calling RunMNSACtx per query in
// order on one session, merged by hand, gives the same report on an
// identical fresh database.
func TestWorkloadP1MatchesPerQueryLoop(t *testing.T) {
	dbA, dbB := testDB(t, 2), testDB(t, 2)
	sessA, sessB := newSession(t, dbA), newSession(t, dbB)
	cfg := DefaultConfig()
	cfg.Drop = true
	ctx := context.Background()

	want := &WorkloadResult{}
	seen := map[stats.ID]bool{}
	for _, q := range tuningWorkload(t, dbA) {
		r, err := RunMNSACtx(ctx, sessA, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.PerQuery = append(want.PerQuery, r)
		want.OptimizerCalls += r.OptimizerCalls
		for _, id := range r.Created {
			if !seen[id] {
				seen[id] = true
				want.Created = append(want.Created, id)
			}
		}
	}
	want.DropListed = sessA.Manager().DropListIDs()
	if len(want.Created) == 0 || len(want.DropListed) == 0 {
		t.Fatalf("setup: reference created %d and drop-listed %d statistics, want both > 0",
			len(want.Created), len(want.DropListed))
	}

	got, err := RunMNSAWorkloadCtx(ctx, sessB, tuningWorkload(t, dbB), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PerQuery, want.PerQuery) {
		t.Errorf("PerQuery diverged from the per-query loop:\ngot:  %+v\nwant: %+v", got.PerQuery, want.PerQuery)
	}
	if !reflect.DeepEqual(got.Created, want.Created) {
		t.Errorf("Created = %v, want %v", got.Created, want.Created)
	}
	if !reflect.DeepEqual(got.DropListed, want.DropListed) {
		t.Errorf("DropListed = %v, want %v", got.DropListed, want.DropListed)
	}
	if got.OptimizerCalls != want.OptimizerCalls {
		t.Errorf("OptimizerCalls = %d, want %d", got.OptimizerCalls, want.OptimizerCalls)
	}
}

// TestWorkloadP1StopsAtFirstError: at parallelism 1 a failing query ends the
// pass, so no statistic that only a later query would create gets built.
func TestWorkloadP1StopsAtFirstError(t *testing.T) {
	const failAt = 2
	ctx := context.Background()
	db := testDB(t, 2)
	sess := newSession(t, db)
	queries := tuningWorkload(t, db)
	cfg := DefaultConfig()
	// The small-table shortcut resolves every candidate's table before any
	// analysis; no TPC-D table is this small, so only the bogus candidate
	// planted on queries[failAt] changes the run — by failing it.
	cfg.MinTableRows = 1
	cfg.CandidateFn = func(q *querySelect) []Candidate {
		cands := CandidateStats(q)
		if q == queries[failAt] {
			cands = append(cands, Candidate{Table: "no_such_table", Columns: []string{"x"}})
		}
		return cands
	}
	_, err := RunMNSAWorkloadCtx(ctx, sess, queries, cfg, 1)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("query %d", failAt)) {
		t.Fatalf("err = %v, want the failure of query %d", err, failAt)
	}

	// Reference on a fresh database: what the later queries create once the
	// queries before the failing one have run.
	refDB := testDB(t, 2)
	refSess := newSession(t, refDB)
	refQs := tuningWorkload(t, refDB)
	if _, err := RunMNSAWorkloadCtx(ctx, refSess, refQs[:failAt], cfg, 1); err != nil {
		t.Fatal(err)
	}
	later, err := RunMNSAWorkloadCtx(ctx, refSess, refQs[failAt+1:], cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(later.Created) == 0 {
		t.Fatal("setup: the queries after the failing one create nothing")
	}
	for _, id := range later.Created {
		if sess.Manager().Has(id) {
			t.Errorf("statistic %s, created only by a query after the failing one, was built", id)
		}
	}
}

// TestParallelWorkloadInvariants: at higher parallelism the created set is
// schedule-dependent (a query running after more statistics exist may stop
// earlier), so exact set equality with serial only holds at p=1. What must
// hold at any parallelism: one result per query in input order, no duplicate
// creations, every reported creation present in the manager, and the created
// set drawn from the serial run's candidate space.
func TestParallelWorkloadInvariants(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	cfg := DefaultConfig()
	cfg.Drop = true

	queries := tuningWorkload(t, db)
	candidates := map[stats.ID]bool{}
	for _, c := range WorkloadCandidates(queries, cfg.CandidateFn) {
		candidates[c.ID()] = true
	}

	par, err := RunMNSAWorkloadCtx(context.Background(), sess, queries, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.PerQuery) != len(queries) {
		t.Fatalf("PerQuery has %d entries, want %d", len(par.PerQuery), len(queries))
	}
	dup := map[stats.ID]bool{}
	for _, id := range par.Created {
		if dup[id] {
			t.Errorf("statistic %s reported created twice", id)
		}
		dup[id] = true
		if !candidates[id] {
			t.Errorf("created statistic %s is outside the candidate space", id)
		}
		if !sess.Manager().Has(id) {
			t.Errorf("created statistic %s missing from the manager", id)
		}
	}
	if len(par.Created) == 0 {
		t.Error("expected the parallel run to create statistics")
	}
	calls := 0
	for _, r := range par.PerQuery {
		if r == nil {
			t.Fatal("nil per-query result")
		}
		calls += r.OptimizerCalls
	}
	if calls != par.OptimizerCalls {
		t.Errorf("OptimizerCalls %d != per-query sum %d", par.OptimizerCalls, calls)
	}
}

// TestParallelWithSharedPlanCache runs the workload driver at parallelism 4
// with a shared plan cache attached; under -race this doubles as the
// optimize-while-mutate stress test at the workload level.
func TestParallelWithSharedPlanCache(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	cache := optimizer.NewPlanCache(256)
	sess.SetPlanCache(cache)
	wr, err := RunMNSAWorkloadCtx(context.Background(), sess, tuningWorkload(t, db), DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Created) == 0 {
		t.Error("expected statistics to be created")
	}
	st := cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("plan cache saw no traffic during parallel tuning")
	}
}

// TestParallelDropListDelta: pre-existing drop-list entries must not be
// reported at parallelism 1 or 4 (regression for the snapshot-delta fix).
func TestParallelDropListDelta(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		db := testDB(t, 2)
		sess := newSession(t, db)
		mgr := sess.Manager()
		pre, err := mgr.Create("supplier", []string{"s_acctbal"})
		if err != nil {
			t.Fatal(err)
		}
		mgr.AddToDropList(pre.ID)

		cfg := DefaultConfig()
		cfg.Drop = true
		wr, err := RunMNSAWorkloadCtx(context.Background(), sess, tuningWorkload(t, db), cfg, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range wr.DropListed {
			if id == pre.ID {
				t.Errorf("p=%d: pre-existing drop-list entry %s reported as new", parallelism, id)
			}
		}
	}
}

// TestAgingSkipAvoidsWastedReoptimize: when aging suppresses every candidate,
// MNSA must terminate after the initial plan and one extremes test (3 calls)
// instead of burning a re-optimization per suppressed unit.
func TestAgingSkipAvoidsWastedReoptimize(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	mgr.AgingWindow = 1000

	q := mustParse(t, db, "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45")
	cfg := DefaultConfig()
	res, err := RunMNSACtx(context.Background(), sess, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Created {
		mgr.Drop(id)
	}

	cfg.UseAging = true
	cfg.AgingCostThreshold = 1e18
	res2, err := RunMNSACtx(context.Background(), sess, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Created) != 0 || len(res2.AgeSkipped) == 0 {
		t.Fatalf("setup: aging should suppress all creation: %+v", res2)
	}
	if res2.TerminatedBy != TermNoCandidates {
		t.Errorf("terminated by %s, want %s", res2.TerminatedBy, TermNoCandidates)
	}
	// 1 initial optimization + 2 extreme plans; no re-optimizations for
	// units that built nothing.
	if res2.OptimizerCalls != 3 {
		t.Errorf("OptimizerCalls = %d, want 3 (no wasted re-optimizations)", res2.OptimizerCalls)
	}
	if res2.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1 (extremes tested once)", res2.Iterations)
	}
}
