package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"autostats"
	"autostats/internal/datagen"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// The tune workload: the paper's Rags U0-C-100 on TPCD_2 at scale 16
// (about 140k rows). The query shapes are fixed by the generator seed
// (tuneShapeSeed); --seed re-samples every constant through
// workload.Instantiator, so a seed changes the inputs without changing
// which tables and columns the workload touches.
const (
	tuneScale     = 16
	tuneWorkload  = "U0-C-100"
	tuneShapeSeed = 1
)

// costScale is the TPC-D scale at which the tune workload's execution cost
// is measured: executing U0-C-100 at tuneScale takes 11-14 s and 1.0-1.2
// GiB, at scale 2 about 2 s and 160 MiB.
const costScale = 2

// tuneInputs generates the workload's SQL for a seed.
func tuneInputs(seed int64) ([]string, error) {
	db, err := datagen.Generate(datagen.Config{Scale: tuneScale, Z: skew, Seed: dbSeed})
	if err != nil {
		return nil, err
	}
	cfg, err := workload.ConfigByName(tuneWorkload, tuneShapeSeed)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(db, cfg)
	if err != nil {
		return nil, err
	}
	inst := workload.NewInstantiator(db, seed)
	var sqls []string
	for _, q := range w.Queries() {
		sqls = append(sqls, inst.Instantiate(q).SQL())
	}
	return sqls, nil
}

// tuneIter is one iteration's outcome.
type tuneIter struct {
	setup, tune time.Duration
	rep         *autostats.TuneReport
	cpu         time.Duration // this process's CPU time during TuneWorkload
	estCost     float64       // the tuned workload's estimated plan cost
	explain     []float64     // seconds per uncached Explain of the tuned workload
}

// tuneOnce generates a fresh system (the untimed set-up, timed on its own),
// tunes the workload through the public facade the way cmd/statsadvisor
// does, and then explains every query under the chosen statistics.
func tuneOnce(ctx context.Context, sqls []string) (*tuneIter, error) {
	it := &tuneIter{}
	t0 := time.Now()
	sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: tuneScale, Skew: skew, Seed: dbSeed})
	if err != nil {
		return nil, err
	}
	it.setup = time.Since(t0)
	t1, cpu1 := time.Now(), cpuSelf()
	it.rep, err = sys.TuneWorkloadCtx(ctx, sqls, tuneOptions)
	if err != nil {
		return nil, err
	}
	it.tune, it.cpu = time.Since(t1), cpuSelf()-cpu1
	// Explain the tuned workload: the first pass gives the estimated plan
	// costs under the chosen statistics. Then, with plan caching off, so
	// that every Explain is one optimizer call as MNSA's what-if probes
	// are, explainPasses more passes give the Explain latencies. Returning
	// the freed memory to the system first keeps the collector and the
	// scavenger out of the timed passes.
	for _, sql := range sqls {
		plan, err := sys.ExplainCtx(ctx, sql)
		if err != nil {
			return nil, err
		}
		c, err := rootCost(plan)
		if err != nil {
			return nil, err
		}
		it.estCost += c
	}
	sys.SetPlanCacheCapacity(0)
	debug.FreeOSMemory()
	for pass := 0; pass < explainPasses; pass++ {
		for _, sql := range sqls {
			t := time.Now()
			if _, err := sys.ExplainCtx(ctx, sql); err != nil {
				return nil, err
			}
			it.explain = append(it.explain, time.Since(t).Seconds())
		}
	}
	return it, nil
}

// explainPasses is how often each iteration times an uncached Explain of
// every query of the tuned workload.
const explainPasses = 5

// tuneOptions is tuneParams as the facade takes them.
var tuneOptions = autostats.TuneOptions{Drop: tuneParams.Drop, Shrink: tuneParams.Shrink, Parallelism: tuneParams.Parallelism}

// execCost tunes U0-C-100, as generated with its own constants on a fresh
// TPCD_2 system at costScale, and executes each query once under the chosen
// statistics: the workload's execution cost in the executor's work units
// (paper §8). Its inputs do not depend on --seed, like the serving
// workloads' templates.
func execCost(ctx context.Context) (float64, error) {
	sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: costScale, Skew: skew, Seed: dbSeed})
	if err != nil {
		return 0, err
	}
	db, err := datagen.Generate(datagen.Config{Scale: costScale, Z: skew, Seed: dbSeed})
	if err != nil {
		return 0, err
	}
	cfg, err := workload.ConfigByName(tuneWorkload, tuneShapeSeed)
	if err != nil {
		return 0, err
	}
	w, err := workload.Generate(db, cfg)
	if err != nil {
		return 0, err
	}
	sqls := sqlsOf(w.Queries())
	if _, err := sys.TuneWorkloadCtx(ctx, sqls, tuneOptions); err != nil {
		return 0, err
	}
	total := 0.0
	for _, sql := range sqls {
		res, err := sys.ExecCtx(ctx, sql)
		if err != nil {
			return 0, err
		}
		total += res.ExecCost
	}
	return total, nil
}

// runTune repeats tuneOnce until --seconds of tuning time have been
// measured (at least three iterations), checks that every iteration chose
// the same statistics at the same costs, and reports medians.
func runTune(seed int64, seconds int, traced bool, root string, rep *report) error {
	ctx := context.Background()
	sqls, err := tuneInputs(seed)
	if err != nil {
		return err
	}
	var iters []*tuneIter
	var measured time.Duration
	for len(iters) < 3 || measured < time.Duration(seconds)*time.Second {
		it, err := tuneOnce(ctx, sqls)
		if err != nil {
			return err
		}
		iters = append(iters, it)
		measured += it.tune
		runtime.GC() // drop this iteration's system before generating the next
	}
	var setupS, tuneS, cpuPerQuery, explainP50, explainP99 []float64
	explainN := 0
	first := iters[0]
	for i, it := range iters {
		rep.attempted++
		setupS = append(setupS, it.setup.Seconds())
		tuneS = append(tuneS, it.tune.Seconds())
		cpuPerQuery = append(cpuPerQuery, float64(it.cpu.Microseconds())/1e3/float64(len(sqls)))
		explainP50 = append(explainP50, quantile(it.explain, 0.5))
		explainP99 = append(explainP99, quantile(it.explain, 0.99))
		explainN += len(it.explain)
		switch {
		case !slices.Equal(it.rep.Created, first.rep.Created):
			rep.checkFail("iteration %d created %v, iteration 0 created %v", i, it.rep.Created, first.rep.Created)
		case !slices.Equal(it.rep.Essential, first.rep.Essential):
			rep.checkFail("iteration %d kept %v, iteration 0 kept %v", i, it.rep.Essential, first.rep.Essential)
		case !slices.Equal(it.rep.DropListed, first.rep.DropListed):
			rep.checkFail("iteration %d drop-listed %v, iteration 0 drop-listed %v", i, it.rep.DropListed, first.rep.DropListed)
		case it.rep.CreationCostUnits != first.rep.CreationCostUnits:
			rep.checkFail("iteration %d build cost %v, iteration 0 %v", i, it.rep.CreationCostUnits, first.rep.CreationCostUnits)
		case it.estCost != first.estCost:
			rep.checkFail("iteration %d estimated cost %v, iteration 0 %v", i, it.estCost, first.estCost)
		case it.rep.Degraded:
			rep.checkFail("iteration %d ran degraded: %v", i, it.rep.BuildFailures)
		}
	}
	rep.set("setup_s", "s", median(setupS))
	rep.set("tune_s", "s", median(tuneS))
	rep.set("cpu_ms_per_op", "ms", median(cpuPerQuery))
	rep.set("tune_iterations", "count", float64(len(iters)))
	rep.set("build_cost_units", "units", first.rep.CreationCostUnits)
	rep.set("tuned_est_cost_units", "units", first.estCost)
	cost, err := execCost(ctx)
	if err != nil {
		return err
	}
	rep.set("tuned_exec_cost_units", "units", cost)
	rep.set("optimizer_calls", "count", float64(first.rep.OptimizerCalls))
	rep.set("created", "count", float64(len(first.rep.Created)))
	rep.set("essential", "count", float64(len(first.rep.Essential)))
	// Per-iteration percentiles (explainPasses uncached Explains of each
	// query), then their medians.
	rep.set("explain_p50_ms", "ms", median(explainP50)*1e3)
	rep.set("explain_p99_ms", "ms", median(explainP99)*1e3)
	rep.set("explain_n", "count", float64(explainN))
	rep.set("failed_frac", "ratio", 0)
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	rep.set("rss_peak_mb", "MiB", rss)
	if traced {
		return traceTune(ctx, sqls, root, seed, rep)
	}
	return nil
}

// traceTune replays one iteration in process, untraced and traced, each on
// a fresh stack, and reports the layers tuning crosses.
func traceTune(ctx context.Context, sqls []string, root string, seed int64, rep *report) error {
	var (
		st      *stack
		created []stats.ID
		scanned int64
	)
	tr, err := traceOverhead(rep, func(tr *tracer) (time.Duration, error) {
		var err error
		if st, err = newStack(tr, tuneScale, false); err != nil {
			return 0, err
		}
		d, err := timeReplay(func() error {
			created, err = st.tune(ctx, tr, sqls)
			return err
		})
		if err != nil {
			return 0, err
		}
		scanned, err = st.rebuildHistograms(tr)
		return d, err
	})
	if err != nil {
		return err
	}
	reportSetupLayers(rep, tr, st, len(sqls), created, scanned)
	cpq, err := candidatesPerQuery(st.db.Schema, sqls)
	if err != nil {
		return err
	}
	rep.set("core.candidates_per_query", "count", cpq)
	rep.set("sqlparser.parse_allocs", "allocs", parseAllocs(st.db.Schema, sqls))
	if err := tr.write(tracePath(root, "tune", seed)); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
