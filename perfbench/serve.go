package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"autostats"
	"autostats/client"
	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/oracle"
	"autostats/internal/protocol"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// setups is how many times a run sets the service up after one warm-up
// set-up; setup_s, tune_s, rss_peak_mb and the pre-tune numbers are medians
// over them. The last set-up serves the measured phases.
const setups = 9

// tuneParams is the pre-tune of every serving tenant, and the tuning of the
// tune workload: MNSA/D plus Shrinking Set, serial.
var tuneParams = protocol.TuneParams{Drop: true, Shrink: true, Parallelism: 1}

// daemon is one cmd/autostatsd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// buildDaemon compiles cmd/autostatsd from the checkout into .bench_build.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "autostatsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/autostatsd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/autostatsd: %w", err)
	}
	return bin, nil
}

// startDaemon starts the daemon with its default configuration; only the
// scale and the address are set. It returns once the daemon has logged its
// listening address.
func startDaemon(bin string, scale float64) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !found {
				f := strings.Fields(line[i+len("listening on "):])
				if len(f) > 0 {
					found = true
					addrc <- f[0]
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep draining until the pipe closes
		d.done <- cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not report a listening address within 30s")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit. A nonzero
// exit means the drain dropped an admitted request.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // the process may have exited already; Wait reports it
	select {
	case err := <-d.done:
		return err
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("daemon did not drain within 60s: %v", <-d.done)
	}
}

// service is a started daemon with one client per tenant.
type service struct {
	d       *daemon
	clients []*client.Client
}

func (s *service) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	return s.d.stop()
}

// setupOut is what one set-up measured.
type setupOut struct {
	total     time.Duration
	tune      []time.Duration // per tenant Tune request
	buildCost float64
	execCost  float64 // the templates' executed cost after tuning, work units
	estCost   float64 // the templates' estimated plan cost after tuning
	rss       float64 // the daemon's VmHWM once set up, MiB
}

// setUp starts a daemon, connects one client per tenant, creates each
// tenant, pre-tunes it on the templates, executes and explains each template
// once under the chosen statistics, and warms the plan cache with the
// warm-up statements.
func setUp(ctx context.Context, bin string, w serveWorkload, tmplSQL, warm []string) (*service, setupOut, error) {
	var out setupOut
	t0 := time.Now()
	d, err := startDaemon(bin, w.scale)
	if err != nil {
		return nil, out, err
	}
	svc := &service{d: d}
	fail := func(err error) (*service, setupOut, error) {
		svc.close()
		return nil, out, err
	}
	for i := 0; i < tenants; i++ {
		c, err := client.Dial(d.addr, client.Options{Tenant: fmt.Sprintf("t%d", i), RequestTimeout: time.Minute})
		if err != nil {
			return fail(fmt.Errorf("dial: %w", err))
		}
		svc.clients = append(svc.clients, c)
	}
	for i, c := range svc.clients {
		// The first request creates the tenant (TPC-D generation).
		if _, err := c.Stats(ctx); err != nil {
			return fail(fmt.Errorf("create tenant %d: %w", i, err))
		}
		tt := time.Now()
		tr, err := c.Tune(ctx, tmplSQL, &tuneParams)
		if err != nil {
			return fail(fmt.Errorf("pre-tune tenant %d: %w", i, err))
		}
		out.tune = append(out.tune, time.Since(tt))
		out.buildCost = tr.CreationCostUnits
		out.execCost, out.estCost = 0, 0
		for _, sql := range tmplSQL {
			res, err := c.Exec(ctx, sql)
			if err != nil {
				return fail(fmt.Errorf("template exec: %w", err))
			}
			out.execCost += res.ExecCost
			plan, err := c.Explain(ctx, sql)
			if err != nil {
				return fail(fmt.Errorf("template explain: %w", err))
			}
			pc, err := rootCost(plan)
			if err != nil {
				return fail(err)
			}
			out.estCost += pc
		}
		for _, sql := range warm {
			if _, err := c.Explain(ctx, sql); err != nil {
				return fail(fmt.Errorf("warm-up explain: %w", err))
			}
		}
	}
	out.total = time.Since(t0)
	if out.rss, err = peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return fail(err)
	}
	return svc, out, nil
}

// rootCost reads the estimated cost of a formatted plan's root operator.
func rootCost(plan string) (float64, error) {
	first, _, _ := strings.Cut(plan, "\n")
	i := strings.LastIndex(first, "cost=")
	if i < 0 {
		return 0, fmt.Errorf("plan has no root cost: %q", first)
	}
	return strconv.ParseFloat(strings.TrimSpace(first[i+len("cost="):]), 64)
}

// outcome is what the generator recorded for one request.
type outcome struct {
	due, sent, done time.Duration // since the phase start
	code            string        // "" on success, else the failure's protocol code
	plan            string
	exec            *protocol.ExecResult
}

// phase is one open-loop run of a request slice at a fixed rate.
type phase struct {
	reqs     []request
	out      []outcome
	wall     time.Duration
	genCPU   time.Duration // this process's CPU time during the phase
	daemonCP time.Duration
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// runOpen sends reqs at a fixed rate regardless of completions (open loop).
// Request i is due at start + i/rate; the generator sleeps only while the
// next request is not yet due and dispatches every request already due
// without sleeping. Each request
// runs on its own goroutine and its latency is taken from its due time.
func runOpen(ctx context.Context, svc *service, reqs []request, rate float64) *phase {
	p := &phase{reqs: reqs, out: make([]outcome, len(reqs))}
	interval := float64(time.Second) / rate
	cpu0 := cpuSelf()
	dcpu0, _ := cpuOf(svc.d.cmd.Process.Pid)
	var wg sync.WaitGroup
	// The schedule runs on its own OS thread, which sleeps in the kernel
	// with no timer slack: a Go timer here wakes up to a millisecond late.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort; lateness is measured either way
	start := time.Now()
	for i := range reqs {
		due := time.Duration(float64(i) * interval)
		if wait := due - time.Since(start); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes this request early; it is then sent on time
		}
		o := &p.out[i]
		o.due = due
		o.sent = time.Since(start)
		wg.Add(1)
		go func(r request, o *outcome) {
			defer wg.Done()
			send(ctx, svc.clients[r.tenant], r, o)
			o.done = time.Since(start)
		}(reqs[i], o)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.genCPU = cpuSelf() - cpu0
	dcpu1, _ := cpuOf(svc.d.cmd.Process.Pid)
	p.daemonCP = dcpu1 - dcpu0
	return p
}

// send performs one request and records its outcome.
func send(ctx context.Context, c *client.Client, r request, o *outcome) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var err error
	switch r.op {
	case opExplain:
		o.plan, err = c.Explain(ctx, r.sql)
	case opMaintain:
		_, err = c.Maintain(ctx)
	default:
		o.exec, err = c.Exec(ctx, r.sql)
	}
	if err != nil {
		o.code = failureCode(err)
	}
}

// failureCode classifies a failed request by its protocol code.
func failureCode(err error) string {
	switch {
	case errors.Is(err, protocol.ErrOverloaded):
		return protocol.CodeOverloaded
	case errors.Is(err, protocol.ErrRateLimited):
		return protocol.CodeRateLimited
	case errors.Is(err, protocol.ErrTimeout):
		return protocol.CodeTimeout
	case errors.Is(err, protocol.ErrDraining):
		return protocol.CodeDraining
	case errors.Is(err, client.ErrConnLost):
		return "conn_lost"
	case errors.Is(err, context.DeadlineExceeded):
		return "client_timeout"
	}
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, "protocol: "); ok {
		if code, _, ok := strings.Cut(rest, ":"); ok && !strings.Contains(code, " ") {
			return code
		}
	}
	return "other"
}

// latencies returns the seconds from due to done of successful requests of
// the given op ("" for all), and the count of failures.
func (p *phase) latencies(op string) ([]float64, int) {
	var xs []float64
	failed := 0
	for i, o := range p.out {
		if op != "" && p.reqs[i].op != op {
			continue
		}
		if o.code != "" {
			failed++
			continue
		}
		xs = append(xs, (o.done - o.due).Seconds())
	}
	return xs, failed
}

// windowSec is the length of one latency window of the nominal phase.
const windowSec = 2.5

// windowedLatency reports op's median and tail latency as the medians, over
// equal windows of the phase's schedule, of each window's own percentiles:
// one stall then moves one window's tail, not the reported tail. Windows
// with too few samples for the tail (fewer than ten beyond it) are pooled
// into one.
func (p *phase) windowedLatency(rep *report, op string, tail float64, windows int) {
	var all []float64
	per := make([][]float64, windows)
	span := p.out[len(p.out)-1].due + 1
	for i, o := range p.out {
		if p.reqs[i].op != op || o.code != "" {
			continue
		}
		x := (o.done - o.due).Seconds()
		all = append(all, x)
		w := int(int64(o.due) * int64(windows) / int64(span))
		per[w] = append(per[w], x)
	}
	if len(all) == 0 {
		return
	}
	need := int(10/(1-tail) + 0.5)
	var p50s, tails []float64
	for _, xs := range per {
		if len(xs) < need {
			p50s, tails = nil, nil
			break
		}
		p50s = append(p50s, quantile(xs, 0.5))
		tails = append(tails, quantile(xs, tail))
	}
	if tails == nil {
		p50s = []float64{quantile(append([]float64(nil), all...), 0.5)}
		tails = []float64{quantile(append([]float64(nil), all...), tail)}
		if len(all) < need {
			rep.note("%s p%d rests on fewer than 10 samples beyond it (%d samples)", op, int(tail*100), len(all))
		}
	}
	name := op
	rep.set(name+"_p50_ms", "ms", median(p50s)*1e3)
	rep.set(fmt.Sprintf("%s_p%d_ms", name, int(tail*100)), "ms", median(tails)*1e3)
	rep.set(name+"_n", "count", float64(len(all)))
	rep.set(name+"_windows", "count", float64(len(tails)))
	rep.set(fmt.Sprintf("%s_p%d_pooled_ms", name, int(tail*100)), "ms", quantile(all, tail)*1e3)
}

// lateness returns how late the generator sent each request, in seconds.
func (p *phase) lateness() []float64 {
	xs := make([]float64, len(p.out))
	for i, o := range p.out {
		xs[i] = (o.sent - o.due).Seconds()
	}
	return xs
}

// behind reports whether the generator fell behind its schedule: its
// median lateness exceeds a millisecond, its p99 lateness exceeds limit, or
// the last tenth of the requests left later than the first tenth by more
// than a millisecond (a growing lag).
func (p *phase) behind(limit time.Duration) (bool, string) {
	late := p.lateness()
	n := len(late)
	if n < 20 {
		return false, ""
	}
	p50 := quantile(append([]float64(nil), late...), 0.5)
	p99 := quantile(append([]float64(nil), late...), 0.99)
	head := median(late[:n/10])
	tail := median(late[n-n/10:])
	switch {
	case p50 > 1e-3:
		return true, fmt.Sprintf("generator median lateness %.3f ms > 1 ms", p50*1e3)
	case p99 > limit.Seconds():
		return true, fmt.Sprintf("generator p99 lateness %.3f ms > %.3f ms", p99*1e3, float64(limit)/1e6)
	case tail-head > 1e-3:
		return true, fmt.Sprintf("generator lag grew by %.3f ms", (tail-head)*1e3)
	}
	return false, ""
}

// rungHolds decides a ladder rung: no failures, p99 of all ops under the
// limit, and no growing backlog (the last request completes within the
// limit of its due time plus one request interval).
func (p *phase) rungHolds(limitMs float64) (bool, string) {
	xs, failed := p.latencies("")
	if failed > 0 {
		return false, fmt.Sprintf("%d failed", failed)
	}
	if p99 := quantile(xs, 0.99) * 1e3; p99 > limitMs {
		return false, fmt.Sprintf("p99 %.2f ms > %.0f ms", p99, limitMs)
	}
	last := time.Duration(0)
	for _, o := range p.out {
		if o.done > last {
			last = o.done
		}
	}
	lastDue := p.out[len(p.out)-1].due
	if backlog := last - lastDue; backlog > time.Duration(limitMs*float64(time.Millisecond)) {
		return false, fmt.Sprintf("backlog %.1f ms at the end", float64(backlog)/1e6)
	}
	if behind, why := p.behind(time.Duration(limitMs * float64(time.Millisecond))); behind {
		return false, why
	}
	return true, ""
}

// cellDatum turns a rendered result cell back into a datum, so wire and
// reference rows compare with the oracle's comparator. Both sides go
// through the same conversion.
func cellDatum(s string) catalog.Datum {
	switch {
	case s == "NULL":
		return catalog.NewNull(catalog.String)
	case strings.HasPrefix(s, "'"):
		return catalog.NewString(s)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return catalog.NewInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return catalog.NewFloat(f)
	}
	return catalog.NewString(s)
}

func toRows(rows [][]string) [][]catalog.Datum {
	out := make([][]catalog.Datum, len(rows))
	for i, r := range rows {
		d := make([]catalog.Datum, len(r))
		for j, c := range r {
			d[j] = cellDatum(c)
		}
		out[i] = d
	}
	return out
}

func colMap(cols []string) map[string]int {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		m[c] = i
	}
	return m
}

// checkExec compares a served Exec result with the reference result as
// multisets, using internal/oracle's comparator.
func checkExec(schema *catalog.Schema, sql string, got *protocol.ExecResult, want *autostats.QueryResult) string {
	q, err := sqlparser.ParseSelect(schema, sql)
	if err != nil {
		return err.Error()
	}
	g := &executor.Result{Cols: colMap(got.Columns), Rows: toRows(got.Rows)}
	w := &oracle.NaiveResult{Cols: colMap(want.Columns), Rows: toRows(want.Rows)}
	if len(want.Rows) == 0 && len(got.Rows) == 0 {
		return ""
	}
	return oracle.CompareResults(q, g, w)
}

// checkPhase checks every served response of a phase: each Explain must
// return a plan; each serve_read Exec must match its reference result.
// Failures are counted by protocol code under label. Only the nominal
// phase counts toward attempted and failed: a ladder rung past capacity is
// meant to be refused.
func checkPhase(rep *report, schema *catalog.Schema, p *phase, label string, counted bool) {
	for i, o := range p.out {
		r := p.reqs[i]
		if counted {
			rep.attempted++
		}
		if o.code != "" {
			if counted {
				rep.failed++
			}
			rep.failures[label+"/"+o.code]++
			continue
		}
		switch r.op {
		case opExplain:
			if strings.TrimSpace(o.plan) == "" {
				rep.checkFail("request %d: Explain returned an empty plan", i)
			}
		case opExec, opDML:
			if o.exec == nil {
				rep.checkFail("request %d: Exec returned no result", i)
			} else if r.want != nil {
				if d := checkExec(schema, r.sql, o.exec, r.want); d != "" {
					rep.checkFail("request %d (%s): %s", i, r.sql, d)
				}
			}
		}
	}
}

// daemonCounters reads the daemon's server.* counters through the Metrics op.
func daemonCounters(ctx context.Context, c *client.Client) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, nil
}

// runServe runs a serving workload: inputs, set-ups, the nominal phase, the
// rate ladder, checks, and (traced) the in-process layer replay.
func runServe(w serveWorkload, seed int64, seconds int, traced bool, root string, rep *report) error {
	ctx := context.Background()
	// The generator shares two CPUs with the daemon; fewer collections of
	// its own heap leave the daemon's CPU share steadier.
	debug.SetGCPercent(400)
	bin, err := buildDaemon(root)
	if err != nil {
		return err
	}

	// Inputs. The generator's database is the tenants' database (same
	// generator, scale and seed), so constants are sampled from live data.
	db, err := datagen.Generate(datagen.Config{Scale: w.scale, Z: skew, Seed: dbSeed})
	if err != nil {
		return err
	}
	tmpls, err := templates(db)
	if err != nil {
		return err
	}
	tmplSQL := sqlsOf(tmpls)
	nominalSec := float64(seconds) * nominalShare
	rungSec := float64(seconds) * (1 - nominalShare) / float64(len(w.ladder))
	nNominal := int(w.rate * nominalSec)
	total := nNominal
	for _, r := range w.ladder {
		total += int(r * rungSec)
	}
	reqs, err := w.stream(w, streamInputs{db: db, tmpls: tmpls, tmplSQL: tmplSQL, seed: seed}, nNominal, total)
	if err != nil {
		return err
	}
	// Warm-up statements: every template with constants from a stream of
	// its own, a few times over.
	var warmInst []string
	wi := workload.NewInstantiator(db, ^seed)
	for pass := 0; pass < 4; pass++ {
		for _, t := range tmpls {
			warmInst = append(warmInst, wi.Instantiate(t).SQL())
		}
	}

	// Set-ups; the last one serves the measured phases. Collect the input
	// generation's garbage, and return it to the system, first, so neither
	// the collector nor the scavenger competes with the daemon during them.
	debug.FreeOSMemory()
	var svc *service
	var setupS, tuneS, build, execCost, estCost, rssS []float64
	for i := -1; i < setups; i++ {
		s, so, err := setUp(ctx, bin, w, tmplSQL, warmInst)
		if err != nil {
			return err
		}
		if i < 0 {
			// The warm-up set-up: the first daemon start of a run pays
			// for cold caches that later ones do not.
			if err := s.close(); err != nil {
				return fmt.Errorf("daemon drain: %w", err)
			}
			continue
		}
		setupS = append(setupS, so.total.Seconds())
		for _, t := range so.tune {
			tuneS = append(tuneS, t.Seconds())
		}
		build = append(build, so.buildCost)
		execCost = append(execCost, so.execCost)
		estCost = append(estCost, so.estCost)
		rssS = append(rssS, so.rss)
		if i < setups-1 {
			if err := s.close(); err != nil {
				return fmt.Errorf("daemon drain: %w", err)
			}
			continue
		}
		svc = s
	}
	closed := false
	defer func() {
		if !closed {
			svc.close()
		}
	}()
	rep.note("set-up seconds %.3f, tune seconds %.3f", setupS, tuneS)
	rep.set("setup_s", "s", median(setupS))
	rep.set("tune_s", "s", median(tuneS))
	rep.set("build_cost_units", "units", median(build))
	rep.set("tuned_exec_cost_units", "units", median(execCost))
	rep.set("tuned_est_cost_units", "units", median(estCost))
	rep.set("rss_peak_mb", "MiB", median(rssS))

	before, err := daemonCounters(ctx, svc.clients[0])
	if err != nil {
		return err
	}
	nom := runOpen(ctx, svc, reqs[:nNominal], w.rate)
	after, err := daemonCounters(ctx, svc.clients[0])
	if err != nil {
		return err
	}
	windows := max(1, int(nominalSec/windowSec))
	for _, op := range []string{opExplain, opExec, opDML} {
		nom.windowedLatency(rep, op, 0.99, windows)
	}
	nom.windowedLatency(rep, opMaintain, 0.90, windows)
	late := nom.lateness()
	rep.set("loadgen.late_p50_us", "us", quantile(append([]float64(nil), late...), 0.5)*1e6)
	rep.set("loadgen.late_p99_us", "us", quantile(append([]float64(nil), late...), 0.99)*1e6)
	rep.set("loadgen.cpu_ms_per_req", "ms", float64(nom.genCPU.Microseconds())/1e3/float64(len(nom.out)))
	if behind, why := nom.behind(time.Duration(w.limitMs / 2 * float64(time.Millisecond))); behind {
		rep.checkFail("run invalid: the generator fell behind its schedule at the nominal rate: %s", why)
	}
	rep.set("nominal_rate_rps", "req/s", w.rate)
	admitted := after["server.requests.admitted"] - before["server.requests.admitted"]
	rejected := 0.0
	for _, k := range []string{"server.requests.rejected_overload", "server.tenant.rate_limited", "server.conn.inflight_rejects"} {
		rejected += after[k] - before[k]
	}
	rep.set("server.admitted", "count", admitted)
	rep.set("server.rejected", "count", rejected)
	rep.set("server.rejected_frac", "ratio", rejected/max(admitted+rejected, 1))
	cpuPerReq := float64(nom.daemonCP.Microseconds()) / 1e3 / float64(len(nom.out))
	rep.set("cpu_ms_per_op", "ms", cpuPerReq)
	rep.set("server.cpu_ms_per_req", "ms", cpuPerReq)
	checkPhase(rep, db.Schema, nom, "nominal", true)
	// The peak under load depends on how many large responses happen to
	// be in flight when the daemon's collector runs, so it varies by a
	// quarter from run to run; rss_peak_mb is the set-up peak.
	rss, err := peakRSSMiB(strconv.Itoa(svc.d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	rep.set("rss_load_peak_mb", "MiB", rss)

	// Rate ladder: the highest rung that holds.
	maxRate := 0.0
	next := nNominal
	for _, rate := range w.ladder {
		slice := make([]request, int(rate*rungSec))
		for j := range slice {
			slice[j] = reqs[(next+j)%len(reqs)]
		}
		next += len(slice)
		p := runOpen(ctx, svc, slice, rate)
		checkPhase(rep, db.Schema, p, fmt.Sprintf("ladder %.0f req/s", rate), false)
		ok, why := p.rungHolds(w.limitMs)
		xs, _ := p.latencies("")
		rep.note("ladder: %.0f req/s: %d requests in %.3f s, p99 %.2f ms, generator CPU %.3f s, daemon CPU %.3f s",
			rate, len(p.out), p.wall.Seconds(), quantile(xs, 0.99)*1e3, p.genCPU.Seconds(), p.daemonCP.Seconds())
		if !ok {
			rep.note("ladder: %.0f req/s refused (%s)", rate, why)
			break
		}
		maxRate = rate
		// Let the queue empty before the next rung.
		time.Sleep(50 * time.Millisecond)
	}
	rep.set("max_rate_rps", "req/s", maxRate)
	if rep.attempted > 0 {
		rep.set("failed_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	}
	closed = true
	if err := svc.close(); err != nil {
		return fmt.Errorf("daemon drain: %w", err)
	}

	if traced {
		return traceServe(ctx, w, seed, root, tmplSQL, reqs[:nNominal], rep)
	}
	return nil
}

// traceServe replays the nominal request stream in process, untraced and
// traced, each on a freshly built and pre-tuned stack.
func traceServe(ctx context.Context, w serveWorkload, seed int64, root string, tmplSQL []string, reqs []request, rep *report) error {
	var (
		st      *stack
		out     *replayOut
		created []stats.ID
		scanned int64
	)
	tr, err := traceOverhead(rep, func(tr *tracer) (time.Duration, error) {
		var err error
		if st, err = newStack(tr, w.scale, true); err != nil {
			return 0, err
		}
		if created, err = st.tune(ctx, tr, tmplSQL); err != nil {
			return 0, err
		}
		if scanned, err = st.rebuildHistograms(tr); err != nil {
			return 0, err
		}
		out = &replayOut{}
		sess := st.sess.Clone()
		return timeReplay(func() error {
			for i, r := range reqs {
				if err := st.serve(ctx, tr, sess, int64(i), r, out); err != nil {
					return fmt.Errorf("replay request %d: %w", i, err)
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	reportSetupLayers(rep, tr, st, len(tmplSQL), created, scanned)
	reportLayers(rep, tr, map[string]string{
		"protocol.encode":  "protocol.encode_us",
		"protocol.decode":  "protocol.decode_us",
		"optimizer.format": "optimizer.format_us",
		"executor.run":     "executor.run_us",
		"executor.dml":     "executor.dml_us",
		"autostats.render": "autostats.render_us",
		"stats.maintain":   "stats.maintain_us",
	})
	rep.set("protocol.req_bytes", "bytes", float64(out.reqBytes)/float64(max(out.requests, 1)))
	rep.set("protocol.resp_bytes", "bytes", float64(out.respBytes)/float64(max(out.requests, 1)))
	// The daemon's Metrics op serves only the server's registry, so the
	// plan-cache counts come from the replay of the same requests.
	lookups := out.hits + out.misses
	rep.set("optimizer.plancache.hits", "count", float64(out.hits))
	rep.set("optimizer.plancache.lookups", "count", float64(lookups))
	rep.set("optimizer.plancache.hit_ratio", "ratio", float64(out.hits)/float64(max(lookups, 1)))
	if out.execs > 0 {
		rep.set("executor.rows_out", "rows/exec", float64(out.rowsOut)/float64(out.execs))
		rep.set("executor.cost_units_per_row_out", "units/row", out.execCost/float64(max(out.rowsOut, 1)))
	}
	snap := st.reg.Snapshot()
	execs := 0
	for _, r := range reqs {
		if r.op == opExec {
			execs++
		}
	}
	rep.set("feedback.observations_per_exec", "obs/exec", float64(snap.Counters["feedback.observations"])/float64(max(execs, 1)))
	rep.set("feedback.correction_hits", "count", float64(snap.Counters["feedback.correction.hits"]))
	rep.set("stats.refreshed", "count", float64(snap.Counters["stats.maintenance.stats_refreshed"]))
	cpq, err := candidatesPerQuery(st.db.Schema, tmplSQL)
	if err != nil {
		return err
	}
	rep.set("core.candidates_per_query", "count", cpq)
	var parsed []string
	for _, r := range reqs {
		if r.op != opMaintain {
			parsed = append(parsed, r.sql)
		}
	}
	rep.set("sqlparser.parse_allocs", "allocs", parseAllocs(st.db.Schema, parsed))
	return tr.write(tracePath(root, w.name, seed))
}
