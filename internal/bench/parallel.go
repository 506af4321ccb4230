package bench

import (
	"context"
	"runtime"
	"time"

	"autostats/internal/core"
	"autostats/internal/optimizer"
	"autostats/internal/stats"
)

// ParallelRow compares serial and parallel MNSA workload tuning on identical
// fresh databases.
type ParallelRow struct {
	DB          string
	Parallelism int
	Queries     int
	SerialWall  time.Duration
	ParWall     time.Duration
	SpeedupX    float64
	// SerialStats and ParStats count the statistics each arm created;
	// OverlapPct is |serial ∩ parallel| / |serial ∪ parallel| in percent.
	// At parallelism 1 overlap is 100 % by construction; at higher
	// parallelism the sets may legitimately differ (creation order changes
	// what later queries still find missing).
	SerialStats int
	ParStats    int
	OverlapPct  float64
	CacheHits   uint64
	CacheMiss   uint64
	// WorkerUtilPct is the parallel arm's pool utilization: the sum of
	// per-worker busy time (the tune.worker.busy timing) over wall-clock ×
	// workers, in percent. Values well below 100 indicate workers starved on
	// the shared manager lock or on queue skew.
	WorkerUtilPct float64
}

// Parallel tunes the same workload serially and with a worker pool, on two
// identically seeded databases, and reports wall-clock plus a created-set
// equality check. parallelism <= 0 uses GOMAXPROCS.
func Parallel(dbName, wlName string, scale float64, seed int64, parallelism int) (*ParallelRow, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	cfg := core.DefaultConfig()

	serialEnv, err := NewEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	w, err := serialEnv.Workload(wlName, seed)
	if err != nil {
		return nil, err
	}
	queries := w.Queries()

	start := time.Now()
	serial, err := core.RunMNSAWorkloadCtx(context.Background(), serialEnv.Sess, queries, cfg, 1)
	if err != nil {
		return nil, err
	}
	serialWall := time.Since(start)

	parEnv, err := NewEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	cache := optimizer.NewPlanCache(1024)
	parEnv.Sess.SetPlanCache(cache)
	pw, err := parEnv.Workload(wlName, seed)
	if err != nil {
		return nil, err
	}
	// Utilization comes from the busy-timing delta around this run: managers
	// default to the shared obs.Default registry, so the counter may already
	// hold observations from earlier rows.
	busyT := parEnv.Sess.Obs().Timing("tune.worker.busy")
	busyBefore := busyT.Snapshot().Sum
	start = time.Now()
	par, err := core.RunMNSAWorkloadCtx(context.Background(), parEnv.Sess, pw.Queries(), cfg, parallelism)
	if err != nil {
		return nil, err
	}
	parWall := time.Since(start)
	busyDelta := busyT.Snapshot().Sum - busyBefore

	row := &ParallelRow{
		DB:          dbName,
		Parallelism: parallelism,
		Queries:     len(queries),
		SerialWall:  serialWall,
		ParWall:     parWall,
		SerialStats: len(serial.Created),
		ParStats:    len(par.Created),
		OverlapPct:  overlapPct(serial.Created, par.Created),
	}
	if parWall > 0 {
		row.SpeedupX = float64(serialWall) / float64(parWall)
		row.WorkerUtilPct = 100 * float64(busyDelta) / (float64(parWall) * float64(parallelism))
	}
	cs := cache.Stats()
	row.CacheHits, row.CacheMiss = cs.Hits, cs.Misses
	return row, nil
}

func overlapPct(a, b []stats.ID) float64 {
	inA := make(map[stats.ID]bool, len(a))
	for _, id := range a {
		inA[id] = true
	}
	union := make(map[stats.ID]bool, len(a)+len(b))
	both := 0
	for _, id := range a {
		union[id] = true
	}
	for _, id := range b {
		if inA[id] {
			both++
		}
		union[id] = true
	}
	if len(union) == 0 {
		return 100
	}
	return 100 * float64(both) / float64(len(union))
}
