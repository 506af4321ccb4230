package core

import (
	"context"
	"fmt"
	"sort"

	"autostats/internal/optimizer"
	"autostats/internal/query"
)

// RunMNSACostWeighted implements the §6 off-line optimization: "in MNSA we
// may only consider building statistics that would potentially serve a
// significant fraction of the workload cost." Queries are ranked by their
// optimizer-estimated cost under the CURRENT statistics (default magic
// numbers where none exist); MNSA then runs only over the most expensive
// queries that together cover `coverage` (0..1] of total estimated workload
// cost. Cheap tail queries are skipped entirely — their plans may remain
// suboptimal, but by construction they contribute little to the bill.
func RunMNSACostWeighted(sess *optimizer.Session, queries []*query.Select, cfg Config, coverage float64) (*WorkloadResult, int, error) {
	if coverage <= 0 || coverage > 1 {
		return nil, 0, fmt.Errorf("core: coverage %v out of (0,1]", coverage)
	}
	type ranked struct {
		q    *query.Select
		cost float64
	}
	rs := make([]ranked, len(queries))
	total := 0.0
	for i, q := range queries {
		p, err := sess.Optimize(q)
		if err != nil {
			return nil, 0, err
		}
		rs[i] = ranked{q: q, cost: p.Cost()}
		total += p.Cost()
	}
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].cost > rs[b].cost })

	var selected []*query.Select
	covered := 0.0
	for _, r := range rs {
		if covered >= coverage*total && len(selected) > 0 {
			break
		}
		selected = append(selected, r.q)
		covered += r.cost
	}
	wr, err := RunMNSAWorkloadCtx(context.TODO(), sess, selected, cfg, 1)
	if err != nil {
		return nil, 0, err
	}
	wr.OptimizerCalls += len(queries) // the ranking pass
	return wr, len(selected), nil
}
