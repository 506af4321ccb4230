package main

import (
	"fmt"
	"math/rand"
	"strings"

	"autostats"
	"autostats/internal/catalog"
	"autostats/internal/protocol"
	"autostats/internal/query"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// Operation kinds of a generated request.
const (
	opExplain  = "explain"
	opExec     = "exec" // a SELECT executed and shipped
	opDML      = "dml"  // INSERT/UPDATE/DELETE, sent as an Exec request
	opMaintain = "maintain"
)

// request is one generated operation; the program sees only its SQL.
type request struct {
	op     string
	tenant int
	sql    string
	// want is the reference result of a serve_read Exec (nil otherwise).
	want *autostats.QueryResult
}

// wireOp is the protocol op that carries the request.
func (r request) wireOp() string {
	switch r.op {
	case opExplain:
		return protocol.OpExplain
	case opMaintain:
		return protocol.OpMaintain
	default:
		return protocol.OpExec
	}
}

// serveWorkload parameterizes an open-loop serving workload.
type serveWorkload struct {
	name    string
	scale   float64   // per-tenant TPC-D scale (cmd/autostatsd -scale)
	rate    float64   // nominal rate, req/s, at which latencies are taken
	ladder  []float64 // rates tried for max_rate_rps, in order
	limitMs float64   // p99 latency limit of all ops for a ladder rung
	// explainPct of SELECTs are Explains, the rest Execs.
	explainPct int
	// updatePct of generated statements are DML (Rags U25: 25).
	updatePct int
	// maintainEvery inserts a Maintain after this many requests (0: none).
	maintainEvery int
	// maxExecRows bounds serve_read Exec results on the reference data.
	maxExecRows int
	// stream generates a run's requests: at least nominal of them, and up
	// to total, the nominal phase's and the whole ladder's together. The
	// ladder continues the stream and wraps around a shorter one.
	stream func(w serveWorkload, in streamInputs, nominal, total int) ([]request, error)
}

// streamInputs is what every request stream is generated from.
type streamInputs struct {
	db      *storage.Database // the tenants' data
	tmpls   []*query.Select   // the templates the tenants are pre-tuned on
	tmplSQL []string
	seed    int64
}

const tenants = 2 // one client.Client (one connection) per tenant

// nominalShare of --seconds runs at the nominal rate; the rest is the rate
// ladder, split evenly between its rungs.
const nominalShare = 0.7

// templateCount and templateSeed fix the 64 Simple Rags templates both
// serving workloads pre-tune on (the tenants' statistics then do not depend
// on --seed); --seed drives the constants, the op mix and the order.
const (
	templateCount = 64
	templateSeed  = 1
)

var readWorkload = serveWorkload{
	name:        "serve_read",
	scale:       1,
	rate:        500,
	ladder:      []float64{500, 700, 1000, 1400, 2000, 2800, 4000},
	limitMs:     25,
	explainPct:  80,
	maxExecRows: 100,
	stream:      readStream,
}

var rwWorkload = serveWorkload{
	name:          "serve_rw",
	scale:         1,
	rate:          200,
	ladder:        []float64{200, 280, 400, 560, 800, 1100, 1600, 2200},
	limitMs:       100,
	explainPct:    50,
	updatePct:     25,
	maintainEvery: 50,
	stream:        rwStream,
}

// templates returns the fixed Simple Rags templates of the serving
// workloads.
func templates(db *storage.Database) ([]*query.Select, error) {
	cfg, err := workload.ConfigByName(fmt.Sprintf("U0-S-%d", templateCount), templateSeed)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(db, cfg)
	if err != nil {
		return nil, err
	}
	return w.Queries(), nil
}

func sqlsOf(qs []*query.Select) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.SQL()
	}
	return out
}

// readStream generates the nominal phase's serve_read requests, which the
// ladder replays (replaying read-only requests changes nothing): a template
// per request, fresh constants from workload.Instantiator, 80% Explain and
// 20% Exec. An Exec is kept only when it returns at most maxExecRows rows on
// an in-process reference System with the tenants' data, configuration and
// pre-tune, whose result becomes the expected answer.
func readStream(w serveWorkload, in streamInputs, nominal, _ int) ([]request, error) {
	ref, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: w.scale, Skew: skew, Seed: dbSeed})
	if err != nil {
		return nil, err
	}
	ref.EnableFeedback(autostats.FeedbackOptions{})
	ref.EnableResilience(autostats.ResilienceOptions{Seed: dbSeed})
	if _, err := ref.TuneWorkload(in.tmplSQL, tuneOptions); err != nil {
		return nil, err
	}
	tmpls := in.tmpls
	rng := rand.New(rand.NewSource(in.seed))
	inst := workload.NewInstantiator(in.db, in.seed)
	out := make([]request, 0, nominal)
	for i := 0; i < nominal; i++ {
		r := request{op: opExplain, tenant: i % tenants}
		if rng.Intn(100) >= w.explainPct {
			r.op = opExec
		}
		if r.op == opExplain {
			r.sql = inst.Instantiate(tmpls[rng.Intn(len(tmpls))]).SQL()
			out = append(out, r)
			continue
		}
		for tries := 0; ; tries++ {
			if tries == 1000 {
				return nil, fmt.Errorf("no template instance returns at most %d rows", w.maxExecRows)
			}
			sql := inst.Instantiate(tmpls[rng.Intn(len(tmpls))]).SQL()
			res, err := ref.Exec(sql)
			if err != nil {
				return nil, fmt.Errorf("reference exec %q: %w", sql, err)
			}
			if len(res.Rows) <= w.maxExecRows {
				r.sql, r.want = sql, res
				break
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// rwStream generates all of a run's serve_rw requests from a never-repeating Rags
// U25-S stream: DML, SELECTs split between Explain and Exec (no row bound,
// so large results ship), and a Maintain after every maintainEvery-th
// request. The statement shapes, and which SELECTs are Explains and which
// Execs, come from the fixed generator seed (templateSeed); --seed
// re-samples every SELECT's constants and each DML's key, so that seeds
// differ in inputs, not in which tables and columns the stream touches or
// which statements ship their rows. With the op mix drawn per seed, the
// daemon's CPU per request of two seeds differed by 0.3, each seed
// repeating within 3%. Rags draws each DELETE's equality constant, and
// each UPDATE's filter, from the skewed live data, so at skew 2 a few
// hundred of them empty the TPC-D tables and the rest of the run would
// measure empty tables. Each DELETE and UPDATE is therefore narrowed to one key value of
// its table (see narrow), and the tables keep their size over a run.
func rwStream(w serveWorkload, in streamInputs, _, total int) ([]request, error) {
	db, seed := in.db, in.seed
	cfg, err := workload.ConfigByName(fmt.Sprintf("U%d-S-%d", w.updatePct, total), templateSeed)
	if err != nil {
		return nil, err
	}
	wl, err := workload.Generate(db, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	mix := rand.New(rand.NewSource(templateSeed))
	inst := workload.NewInstantiator(db, seed)
	keys := map[string][]catalog.Datum{}
	// narrow confines a DELETE or UPDATE to the rows whose first column
	// equals a value sampled from the live data: a handful of rows instead
	// of a skewed value's share of the table.
	narrow := func(table string, fs []query.Filter) ([]query.Filter, error) {
		td, err := db.Table(table)
		if err != nil {
			return nil, err
		}
		col := strings.ToLower(td.Schema.Columns[0].Name)
		vals, ok := keys[table]
		if !ok {
			if vals, err = td.ColumnValues(col); err != nil {
				return nil, err
			}
			keys[table] = vals
		}
		if len(vals) == 0 {
			return fs, nil
		}
		key := query.Filter{Col: query.ColumnRef{Table: table, Column: col}, Op: query.Eq, Val: vals[rng.Intn(len(vals))]}
		return append(append([]query.Filter(nil), fs...), key), nil
	}
	out := make([]request, 0, total+total/w.maintainEvery+1)
	for _, stmt := range wl.Statements {
		var err error
		switch s := stmt.(type) {
		case *query.Select:
			stmt = inst.Instantiate(s)
		case *query.Delete:
			s.Filters, err = narrow(s.Table, s.Filters)
		case *query.Update:
			s.Filters, err = narrow(s.Table, s.Filters)
		}
		if err != nil {
			return nil, err
		}
		i := len(out)
		r := request{tenant: i % tenants, sql: stmt.SQL()}
		switch {
		case !stmt.IsQuery():
			r.op = opDML
		case mix.Intn(100) < w.explainPct:
			r.op = opExplain
		default:
			r.op = opExec
		}
		out = append(out, r)
		if w.maintainEvery > 0 && len(out)%w.maintainEvery == w.maintainEvery-1 {
			out = append(out, request{op: opMaintain, tenant: len(out) % tenants})
		}
	}
	return out, nil
}
