package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"autostats"
	"autostats/internal/catalog"
	"autostats/internal/core"
	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/feedback"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/protocol"
	"autostats/internal/query"
	"autostats/internal/resilience"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

// stack is the program's layers wired the way autostats.System wires them
// (TPC-D generator seed 42, MaxDiff histograms, the default plan cache),
// with feedback and resilience on as in the daemon's tenants when served,
// but held open so the traced replay can call each layer's public functions
// directly. Its metrics go to a private registry, read as deltas.
type stack struct {
	db    *storage.Database
	mgr   *stats.Manager
	sess  *optimizer.Session
	cache *optimizer.PlanCache
	ex    *executor.Executor
	guard *resilience.Guard // nil unless served
	maint stats.MaintenancePolicy
	reg   *obs.Registry
}

const (
	dbSeed        = 42  // cmd/autostatsd's default -db-seed
	skew          = 2.0 // TPCD_2, and cmd/autostatsd's default -skew
	histogramKind = histogram.MaxDiff
	// histogramBuckets is what autostats.GenerateTPCD passes by default:
	// zero, which leaves the bucket cap to the histogram package.
	histogramBuckets = 0
)

func newStack(tr *tracer, scale float64, served bool) (*stack, error) {
	tr.start("datagen.generate")
	db, err := datagen.Generate(datagen.Config{Scale: scale, Z: skew, Seed: dbSeed})
	tr.end("")
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	mgr := stats.NewManager(db, histogramKind, histogramBuckets)
	mgr.SetObsRegistry(reg)
	sess := optimizer.NewSession(mgr)
	cache := optimizer.NewPlanCache(autostats.DefaultPlanCacheCapacity)
	sess.SetPlanCache(cache)
	st := &stack{
		db: db, mgr: mgr, sess: sess, cache: cache, ex: executor.New(db),
		maint: stats.DefaultMaintenancePolicy(), reg: reg,
	}
	if served {
		st.guard = resilience.NewGuard(mgr, resilience.GuardConfig{Retry: resilience.DefaultRetry(dbSeed), Seed: dbSeed})
		led := feedback.NewLedger(feedback.ManagerVersions(mgr), feedback.Config{MinObservations: 2, Obs: reg})
		st.ex.SetFeedback(led)
		sess.SetCorrections(led)
		mgr.SetFeedbackProvider(led)
		p := stats.DefaultFeedbackPolicy()
		p.FeedbackMinObservations = 2
		st.maint = p
	}
	return st, nil
}

// tune replays TuneWorkload's offline policy (MNSA/D, then Shrinking Set)
// one core call at a time: a core.mnsa span per query and one core.shrink
// span. It returns the created statistic IDs in creation order.
func (st *stack) tune(ctx context.Context, tr *tracer, sqls []string) ([]stats.ID, error) {
	queries := make([]*query.Select, 0, len(sqls))
	for i, sql := range sqls {
		tr.setTrace(int64(i))
		tr.start("sqlparser.parse")
		q, err := sqlparser.ParseSelect(st.db.Schema, sql)
		tr.end("")
		if err != nil {
			return nil, fmt.Errorf("tune query %d: %w", i, err)
		}
		tr.start("query.template")
		_ = q.Template()
		tr.end("")
		queries = append(queries, q)
	}
	cfg := core.DefaultConfig()
	cfg.Drop = true
	if st.guard != nil {
		// As autostats.System does with resilience enabled.
		cfg.Builder = st.guard
	}
	var created []stats.ID
	for i, q := range queries {
		tr.setTrace(int64(i))
		tr.start("core.mnsa")
		res, err := core.RunMNSACtx(ctx, st.sess, q, cfg)
		tr.end("")
		if err != nil {
			return nil, fmt.Errorf("mnsa query %d: %w", i, err)
		}
		created = append(created, res.Created...)
	}
	tr.setTrace(int64(len(queries)))
	tr.start("core.shrink")
	sr, err := core.ShrinkingSetCtx(ctx, st.sess, queries, nil, core.ExecutionTree{})
	tr.end("")
	if err != nil {
		return nil, err
	}
	for _, id := range sr.Removed {
		st.mgr.AddToDropList(id)
	}
	return created, nil
}

// rebuildHistograms replays the statistic builds of every existing
// statistic through the storage and histogram layers on their own, with the
// calls stats.Manager's build makes: a partitioned column gather, then a
// partition-parallel histogram build. It returns the rows gathered.
func (st *stack) rebuildHistograms(tr *tracer) (int64, error) {
	var rows int64
	par := st.mgr.BuildParallelism()
	for i, s := range st.mgr.All() {
		tr.setTrace(int64(i))
		td, err := st.db.Table(s.Table)
		if err != nil {
			return rows, err
		}
		tr.start("storage.scan")
		parts, _, err := td.MultiColumnValuesPartitioned(s.Columns, par)
		tr.end("")
		if err != nil {
			return rows, err
		}
		for _, p := range parts {
			rows += int64(len(p))
		}
		tr.start("histogram.build")
		_, err = histogram.BuildMultiParallel(histogramKind, s.Columns, parts, histogramBuckets)
		tr.end("")
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// replayOut accumulates what the request replay observed.
type replayOut struct {
	reqBytes, respBytes int64
	requests            int
	execs, rowsOut      int
	execCost            float64
	hits, misses        int
}

// serve replays one request through the layers a daemon request crosses:
// request frame encode and decode, parse, template, optimize (hit or miss),
// plan format, execute, render, and the response frame.
func (st *stack) serve(ctx context.Context, tr *tracer, sess *optimizer.Session, id int64, r request, out *replayOut) error {
	tr.setTrace(id)
	tr.start("request")
	defer tr.end("")
	op := r.wireOp()
	tr.start("protocol.encode")
	frame, err := protocol.EncodeFrame(&protocol.Request{ID: uint64(id) + 1, Op: op, SQL: r.sql}, protocol.DefaultMaxFrame)
	tr.end("")
	if err != nil {
		return err
	}
	out.reqBytes += int64(len(frame))
	tr.start("protocol.decode")
	req, err := protocol.ReadRequest(bytes.NewReader(frame), protocol.DefaultMaxFrame)
	tr.end("")
	if err != nil {
		return err
	}
	resp := &protocol.Response{ID: req.ID}
	switch r.op {
	case opMaintain:
		tr.start("stats.maintain")
		rep, err := st.guard.MaintainCtx(ctx, st.maint)
		tr.end("")
		if err != nil {
			return err
		}
		resp.Maintain = &protocol.MaintResult{TablesRefreshed: rep.TablesRefreshed, StatsDropped: rep.StatsDropped}
	case opDML:
		tr.start("sqlparser.parse")
		stmt, err := sqlparser.Parse(st.db.Schema, req.SQL)
		tr.end("")
		if err != nil {
			return err
		}
		tr.start("executor.dml")
		res, err := st.ex.RunStatement(sess, stmt)
		tr.end("")
		if err != nil {
			return err
		}
		resp.Exec = &protocol.ExecResult{ExecCost: res.Cost, Affected: res.Affected}
	default:
		tr.start("sqlparser.parse")
		q, err := sqlparser.ParseSelect(st.db.Schema, req.SQL)
		tr.end("")
		if err != nil {
			return err
		}
		tr.start("query.template")
		_ = q.Template()
		tr.end("")
		before := st.cache.Stats().Hits
		tr.start("optimizer.optimize")
		plan, err := sess.Optimize(q)
		hit := st.cache.Stats().Hits > before
		if hit {
			out.hits++
			tr.end("optimizer.hit")
		} else {
			out.misses++
			tr.end("optimizer.miss")
		}
		if err != nil {
			return err
		}
		tr.start("optimizer.format")
		text := plan.Format()
		tr.end("")
		if r.op == opExplain {
			resp.Plan = text
			break
		}
		tr.start("executor.run")
		res, err := st.ex.Run(plan)
		tr.end("")
		if err != nil {
			return err
		}
		tr.start("autostats.render")
		rows := make([][]string, len(res.Rows))
		for i, row := range res.Rows {
			cells := make([]string, len(row))
			for j, d := range row {
				cells[j] = d.String()
			}
			rows[i] = cells
		}
		tr.end("")
		out.execs++
		out.rowsOut += len(rows)
		out.execCost += res.Cost
		resp.Exec = &protocol.ExecResult{Rows: rows, ExecCost: res.Cost, EstimatedCost: plan.Cost(), Plan: text}
	}
	tr.start("protocol.encode")
	rframe, err := protocol.EncodeFrame(resp, protocol.DefaultMaxFrame)
	tr.end("")
	if err != nil {
		return err
	}
	out.respBytes += int64(len(rframe))
	tr.start("protocol.decode")
	_, err = protocol.ReadResponse(bytes.NewReader(rframe), protocol.DefaultMaxFrame)
	tr.end("")
	out.requests++
	return err
}

// parseAllocs is the mean heap allocations of one sqlparser.Parse over the
// given statements, measured in a separate untraced pass.
func parseAllocs(schema *catalog.Schema, sqls []string) float64 {
	if len(sqls) == 0 {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range sqls {
		_, _ = sqlparser.Parse(schema, s) // statements were generated from the schema; errors surface in the replay
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(sqls))
}

// reportSetupLayers reports the layers that building and tuning a system
// crosses: datagen, parse, core, the statistic builds as the stats layer
// counts them, and the storage and histogram replays.
func reportSetupLayers(rep *report, tr *tracer, st *stack, nQueries int, created []stats.ID, scanned int64) {
	snap := st.reg.Snapshot()
	self := tr.selfTimes()
	if lt := self["datagen.generate"]; lt.calls > 0 {
		rep.set("datagen.generate_s", "s", lt.self.Seconds()/float64(lt.calls))
	}
	reportLayers(rep, tr, map[string]string{
		"sqlparser.parse": "sqlparser.parse_us",
		"query.template":  "query.template_us",
		"histogram.build": "histogram.build_us",
		"storage.scan":    "storage.scan_us",
		"optimizer.hit":   "optimizer.hit_us",
		"optimizer.miss":  "optimizer.miss_us",
	})
	builds := snap.Counters["stats.builds"]
	bl := snap.Timings["stats.build.latency"]
	rep.set("stats.builds", "count", float64(builds))
	if bl.Count > 0 {
		rep.set("stats.build_us", "us", float64(bl.Sum.Nanoseconds())/1e3/float64(bl.Count))
	}
	rep.set("stats.build_cost_units", "units", snap.FloatCounters["stats.build.cost_units"])
	if lt := self["storage.scan"]; lt.self > 0 {
		rep.set("storage.scan_rows_per_s", "rows/s", float64(scanned)/lt.self.Seconds())
	}
	mnsa := self["core.mnsa"]
	calls := snap.Counters["mnsa.optimizer_calls"]
	rep.set("core.mnsa_us_per_query", "us", float64(mnsa.self.Nanoseconds())/1e3/float64(max(nQueries, 1)))
	rep.set("core.mnsa_optimizer_calls", "count", float64(calls))
	rep.set("core.created", "count", float64(len(created)))
	rep.set("core.optimizer_calls_per_stat", "calls/stat", float64(calls)/float64(max(len(created), 1)))
	if sh := self["core.shrink"]; sh.calls > 0 {
		rep.set("core.shrink_us", "us", float64(sh.self.Nanoseconds())/1e3)
	}
	rep.set("core.shrink_optimizer_calls", "count", float64(snap.Counters["shrink.probes"]))
	oc := snap.Counters["optimizer.optimizations"]
	rep.set("optimizer.calls", "count", float64(oc))
	if lt, ok := snap.Timings["optimizer.optimize.latency"]; ok && lt.Count > 0 && self["optimizer.miss"].calls == 0 {
		// No request replay: every optimization during tuning is a miss
		// (what-if probes skip the plan cache).
		rep.set("optimizer.miss_us", "us", float64(lt.Sum.Nanoseconds())/1e3/float64(lt.Count))
	}
}

// candidatesPerQuery is the mean size of MNSA's candidate set per query.
func candidatesPerQuery(schema *catalog.Schema, sqls []string) (float64, error) {
	total := 0
	for _, s := range sqls {
		q, err := sqlparser.ParseSelect(schema, s)
		if err != nil {
			return 0, err
		}
		total += len(core.CandidateStats(q))
	}
	return float64(total) / float64(max(len(sqls), 1)), nil
}

// overheadRounds is how many untraced and traced replays alternate.
const overheadRounds = 5

// traceOverhead runs replay untraced and traced, alternating, overheadRounds
// times each. Each round's traced time over the untraced time just before
// it gives one overhead; trace.overhead_pct is their median, reported with
// their range, since the host's speed can drift by more than the tracer
// costs. It returns the last traced replay's tracer.
func traceOverhead(rep *report, replay func(tr *tracer) (time.Duration, error)) (*tracer, error) {
	var plain, traced, pct []float64
	var last *tracer
	for i := 0; i < overheadRounds; i++ {
		p, err := replay(nil)
		if err != nil {
			return nil, err
		}
		last = newTracer()
		t, err := replay(last)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p.Seconds())
		traced = append(traced, t.Seconds())
		pct = append(pct, 100*(t-p).Seconds()/p.Seconds())
	}
	lo, hi := slices.Min(pct), slices.Max(pct)
	rep.set("trace.overhead_pct", "%", median(pct))
	rep.set("trace.overhead_min_pct", "%", lo)
	rep.set("trace.overhead_max_pct", "%", hi)
	if lo < 0 && hi > 0 {
		rep.note("trace overhead not resolved: per-round overheads range from %.1f%% to %.1f%%", lo, hi)
	}
	rep.set("trace.untraced_replay_s", "s", median(plain))
	rep.set("trace.traced_replay_s", "s", median(traced))
	return last, nil
}

// timeReplay runs fn and returns its wall time.
func timeReplay(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}
