package bench

import (
	"context"
	"fmt"
	"time"

	"autostats/internal/feedback"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
)

// FeedbackRow is the PR-3 loop-closing demo on skewed TPC-D: a DML burst
// shifts the l_quantity skew while rewriting too few rows to trip the
// row-modification counter, the stale histogram misestimates the demo query
// by orders of magnitude, and the q-error evidence alone triggers the refresh
// that fixes both the estimate and the chosen plan.
type FeedbackRow struct {
	DB string
	// ModifiedPct is the fraction of lineitem rows the skew shift rewrote, in
	// percent — below the 20 % counter threshold by construction.
	ModifiedPct float64
	// EstBefore/ActualRows are the stale filtered-row estimate and the true
	// cardinality of the lineitem predicate; QErrBefore is their q-error.
	EstBefore  float64
	ActualRows int64
	QErrBefore float64
	// CounterRefreshes (expected 0) and FeedbackRefreshes (expected >= 1)
	// are the two refresh paths of the maintenance pass.
	CounterRefreshes  int
	FeedbackRefreshes int
	// QErrAfter is the q-error observed re-running the query post-refresh.
	QErrAfter float64
	// PlanBefore/PlanAfter are execution-tree signatures around the refresh.
	PlanBefore, PlanAfter string
	PlanChanged           bool
}

// feedbackDemoSQL is the demo query: the l_quantity predicate's estimate
// decides between an index-nested-loop and a hash join against orders.
const feedbackDemoSQL = "SELECT o_orderdate FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45"

// FeedbackDemo runs the demo on TPCD_2 at the given scale. Corrections are
// deliberately left detached so the plan change is attributable to the
// feedback-triggered refresh alone.
func FeedbackDemo(scale float64) (*FeedbackRow, error) {
	env, err := NewEnv("TPCD_2", scale)
	if err != nil {
		return nil, err
	}
	if err := env.CreateIndexedColumnStats(); err != nil {
		return nil, err
	}
	if _, err := env.Mgr.Create("lineitem", []string{"l_quantity"}); err != nil {
		return nil, err
	}
	led := feedback.NewLedger(feedback.ManagerVersions(env.Mgr), feedback.Config{MinObservations: 2})
	env.Ex.SetFeedback(led)
	env.Mgr.SetFeedbackProvider(led)

	// Skew shift: under z=2 about 16 % of lineitem rows carry the
	// second-ranked quantity value (1.98 — the generator spaces 50 floats
	// across [1,50]); moving them to 50 relocates that probability mass into
	// the query range while staying under the 20 % refresh threshold.
	td, err := env.DB.Table("lineitem")
	if err != nil {
		return nil, err
	}
	rows := td.RowCount()
	upd, err := sqlparser.Parse(env.DB.Schema, "UPDATE lineitem SET l_quantity = 50 WHERE l_quantity > 1.5 AND l_quantity < 2.5")
	if err != nil {
		return nil, err
	}
	updRes, err := env.Ex.RunStatement(env.Sess, upd)
	if err != nil {
		return nil, err
	}
	row := &FeedbackRow{DB: env.DBName, ModifiedPct: 100 * float64(updRes.Affected) / float64(rows)}

	q, err := sqlparser.ParseSelect(env.DB.Schema, feedbackDemoSQL)
	if err != nil {
		return nil, err
	}
	sig, err := runDemoQuery(env, q, 2)
	if err != nil {
		return nil, err
	}
	row.PlanBefore = sig
	if e, ok := lineitemEntry(led); ok {
		row.EstBefore, row.ActualRows, row.QErrBefore = e.LastEst, e.LastActual, e.MaxQ
	} else {
		return nil, fmt.Errorf("bench: no feedback evidence for lineitem before maintenance")
	}

	rep, err := env.Mgr.RunMaintenanceCtx(context.Background(), stats.DefaultFeedbackPolicy())
	if err != nil {
		return nil, err
	}
	row.CounterRefreshes = rep.TablesRefreshed
	row.FeedbackRefreshes = rep.StatsFeedbackRefreshed

	sig, err = runDemoQuery(env, q, 2)
	if err != nil {
		return nil, err
	}
	row.PlanAfter = sig
	row.PlanChanged = row.PlanAfter != row.PlanBefore
	if e, ok := lineitemEntry(led); ok {
		row.QErrAfter = e.MaxQ
	} else {
		return nil, fmt.Errorf("bench: no feedback evidence for lineitem after refresh")
	}
	return row, nil
}

// runDemoQuery optimizes and executes q n times (enough to clear the
// ledger's observation minimum) and returns the plan signature.
func runDemoQuery(env *Env, q *query.Select, n int) (string, error) {
	var sig string
	for i := 0; i < n; i++ {
		plan, err := env.Sess.Optimize(q)
		if err != nil {
			return "", err
		}
		if _, err := env.Ex.Run(plan); err != nil {
			return "", err
		}
		sig = plan.Signature()
	}
	return sig, nil
}

// lineitemEntry finds the current-window ledger entry for the lineitem scan.
func lineitemEntry(led *feedback.Ledger) (feedback.EntrySnapshot, bool) {
	for _, e := range led.Entries() {
		if e.Key.Table == "lineitem" && e.Current {
			return e, true
		}
	}
	return feedback.EntrySnapshot{}, false
}

// FeedbackOverheadRow measures the wall-clock cost of actual-cardinality
// capture: the same query batch executed with feedback detached vs attached.
type FeedbackOverheadRow struct {
	DB          string
	QueriesRun  int
	OffWall     time.Duration
	OnWall      time.Duration
	OverheadPct float64
	// Observations is the number of node observations the enabled arm fed to
	// the ledger (a sanity check that capture actually ran).
	Observations uint64
}

// FeedbackOverhead executes the demo query repeatedly on identically seeded
// databases with capture off and on. iters <= 0 means 50.
func FeedbackOverhead(scale float64, iters int) (*FeedbackOverheadRow, error) {
	if iters <= 0 {
		iters = 50
	}
	run := func(withFeedback bool) (time.Duration, uint64, error) {
		env, err := NewEnv("TPCD_2", scale)
		if err != nil {
			return 0, 0, err
		}
		if err := env.CreateIndexedColumnStats(); err != nil {
			return 0, 0, err
		}
		var led *feedback.Ledger
		if withFeedback {
			led = feedback.NewLedger(feedback.ManagerVersions(env.Mgr), feedback.Config{})
			env.Ex.SetFeedback(led)
		}
		q, err := sqlparser.ParseSelect(env.DB.Schema, feedbackDemoSQL)
		if err != nil {
			return 0, 0, err
		}
		plan, err := env.Sess.Optimize(q)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := env.Ex.Run(plan); err != nil {
				return 0, 0, err
			}
		}
		wall := time.Since(start)
		if led != nil {
			return wall, led.Stats().Observations, nil
		}
		return wall, 0, nil
	}
	offWall, _, err := run(false)
	if err != nil {
		return nil, err
	}
	onWall, obsCount, err := run(true)
	if err != nil {
		return nil, err
	}
	return &FeedbackOverheadRow{
		DB:           "TPCD_2",
		QueriesRun:   iters,
		OffWall:      offWall,
		OnWall:       onWall,
		OverheadPct:  PctIncrease(float64(offWall), float64(onWall)),
		Observations: obsCount,
	}, nil
}
