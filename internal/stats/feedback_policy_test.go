package stats

import (
	"context"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/storage"
)

// fakeFeedback is a canned FeedbackProvider for policy tests; the real
// implementation lives in internal/feedback and is covered there.
type fakeFeedback struct{ sums []QErrorSummary }

func (f *fakeFeedback) QErrorSummaries() []QErrorSummary { return f.sums }

// dirtyRows inserts n rows into the table without resetting its mod counter.
func dirtyRows(t *testing.T, db *storage.Database, table string, n int) {
	t.Helper()
	td := mustTable(t, db, table)
	for i := 0; i < n; i++ {
		if err := td.Insert(storage.Row{catalog.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFeedbackTriggeredRefresh is the policy half of the PR's loop-closing
// demo: the table's mod counter is far below UpdateFraction, so the counter
// path stays silent, yet a large observed q-error forces the refresh anyway.
func TestFeedbackTriggeredRefresh(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	if _, err := m.Create("hot", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	// 5 modified rows out of 105 — well under the 0.2 fraction.
	dirtyRows(t, db, "hot", 5)
	m.SetFeedbackProvider(&fakeFeedback{sums: []QErrorSummary{
		{Table: "hot", Column: "v", Count: 3, MaxQ: 9, MeanQ: 4},
	}})
	epoch0 := m.Epoch()

	rep, err := m.RunMaintenanceCtx(context.Background(), DefaultFeedbackPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 0 || rep.StatsRefreshed != 0 {
		t.Fatalf("counter path fired: %+v", rep)
	}
	if rep.StatsFeedbackRefreshed != 1 {
		t.Fatalf("StatsFeedbackRefreshed = %d, want 1 (report %+v)", rep.StatsFeedbackRefreshed, rep)
	}
	if rep.UpdateCostUnits <= 0 {
		t.Errorf("feedback refresh charged no cost: %+v", rep)
	}
	if m.Epoch() == epoch0 {
		t.Error("feedback refresh did not bump the stats epoch")
	}
	// The single-stat path must leave the table's mod counter alone: the
	// remaining modifications still count toward the next counter-path pass.
	if mc := mustTable(t, db, "hot").ModCounter(); mc != 5 {
		t.Errorf("ModCounter = %d after feedback refresh, want 5", mc)
	}
}

// TestFeedbackRefreshRequiresThreshold: a zero QErrorThreshold disables the
// path entirely, even with a provider attached reporting huge errors.
func TestFeedbackRefreshRequiresThreshold(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	if _, err := m.Create("hot", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	m.SetFeedbackProvider(&fakeFeedback{sums: []QErrorSummary{
		{Table: "hot", Column: "v", Count: 100, MaxQ: 1000, MeanQ: 500},
	}})
	rep, err := m.RunMaintenanceCtx(context.Background(), DefaultMaintenancePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsFeedbackRefreshed != 0 || rep.StatsDropConfirmed != 0 {
		t.Fatalf("feedback path fired with zero threshold: %+v", rep)
	}
}

// TestFeedbackMinObservationsGate: one noisy observation is not evidence.
func TestFeedbackMinObservationsGate(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	if _, err := m.Create("hot", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	m.SetFeedbackProvider(&fakeFeedback{sums: []QErrorSummary{
		{Table: "hot", Column: "v", Count: 1, MaxQ: 50, MeanQ: 50},
	}})
	p := DefaultFeedbackPolicy()
	p.FeedbackMinObservations = 2
	rep, err := m.RunMaintenanceCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsFeedbackRefreshed != 0 {
		t.Fatalf("refresh fired on a single observation: %+v", rep)
	}
}

// TestFeedbackSkipsCounterRefreshedTables: when the mod counter already
// refreshed a table this pass, stale pre-refresh q-errors must not trigger a
// redundant second refresh of the same statistics.
func TestFeedbackSkipsCounterRefreshedTables(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	if _, err := m.Create("hot", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	dirtyRows(t, db, "hot", 50) // past the 0.2 fraction
	m.SetFeedbackProvider(&fakeFeedback{sums: []QErrorSummary{
		{Table: "hot", Column: "v", Count: 10, MaxQ: 20, MeanQ: 8},
	}})
	rep, err := m.RunMaintenanceCtx(context.Background(), DefaultFeedbackPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 1 || rep.StatsRefreshed != 1 {
		t.Fatalf("counter path: %+v, want 1 table / 1 stat", rep)
	}
	if rep.StatsFeedbackRefreshed != 0 {
		t.Fatalf("feedback path double-refreshed a fresh table: %+v", rep)
	}
}

// TestFeedbackDropConfirmation: accurate estimates confirm a drop-listed
// statistic for physical drop; maintained statistics with the same accuracy
// evidence are untouched.
func TestFeedbackDropConfirmation(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	hot, err := m.Create("hot", []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("cold", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	if !m.AddToDropList(hot.ID) {
		t.Fatal("AddToDropList failed")
	}
	m.SetFeedbackProvider(&fakeFeedback{sums: []QErrorSummary{
		{Table: "hot", Column: "v", Count: 8, MaxQ: 1.1, MeanQ: 1.05},
		{Table: "cold", Column: "v", Count: 8, MaxQ: 1.2, MeanQ: 1.1},
	}})
	rep, err := m.RunMaintenanceCtx(context.Background(), DefaultFeedbackPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsDropConfirmed != 1 {
		t.Fatalf("StatsDropConfirmed = %d, want 1 (report %+v)", rep.StatsDropConfirmed, rep)
	}
	if m.Get(hot.ID) != nil {
		t.Error("confirmed drop-listed stat still present")
	}
	if len(m.Maintained()) != 1 {
		t.Errorf("maintained stats = %d, want the cold stat alone", len(m.Maintained()))
	}

	// Inaccurate drop-listed stats are NOT confirmed — they go back through
	// the feedback-refresh consideration instead (and stay listed).
	cold2, err := m.Create("hot", []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	m.AddToDropList(cold2.ID)
	m.SetFeedbackProvider(&fakeFeedback{sums: []QErrorSummary{
		{Table: "hot", Column: "v", Count: 8, MaxQ: 30, MeanQ: 12},
	}})
	rep, err = m.RunMaintenanceCtx(context.Background(), DefaultFeedbackPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsDropConfirmed != 0 {
		t.Fatalf("inaccurate drop-listed stat confirmed: %+v", rep)
	}
	if m.Get(cold2.ID) == nil {
		t.Error("inaccurate drop-listed stat was dropped")
	}
}
