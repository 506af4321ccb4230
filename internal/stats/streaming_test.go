package stats

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/storage"
)

// streamDB builds a database with one wider table ("s": int with dups and
// NULL-able float, string group, int) so streaming builds cross type and
// NULL handling, not just the minimal fixture.
func streamDB(t *testing.T, rows int) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("s",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.String},
		catalog.Column{Name: "c", Type: catalog.Int},
	)); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "s")
	for i := 0; i < rows; i++ {
		a := catalog.NewInt(int64(i % 23))
		if i%13 == 0 {
			a = catalog.NewNull(catalog.Int)
		}
		r := storage.Row{
			a,
			catalog.NewString(fmt.Sprintf("g%d", i%7)),
			catalog.NewInt(int64(i % 3)),
		}
		if err := td.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Punch holes so block scans must skip dead rows.
	var dead []int
	for id := 5; id < rows; id += 17 {
		dead = append(dead, id)
	}
	td.Delete(dead)
	return db
}

// spillFiles counts leftover spill temp files in dir.
func spillFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestStreamingBuildIdentity: a streaming build must be bitwise-identical to
// the materialized single-pass build at every block size, partition cut, and
// spill pattern — the tentpole invariant.
func TestStreamingBuildIdentity(t *testing.T) {
	db := streamDB(t, 500)
	cols := []string{"a", "b", "c"}
	ref := NewManager(db, histogram.MaxDiff, 0)
	want, err := ref.Create("s", cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 7, 64, 4096} {
		for _, budget := range []int64{0, 1} { // 0 = never spill, 1 = spill every partial
			m := NewManager(db, histogram.MaxDiff, 0)
			m.SetObsRegistry(obs.New())
			if err := m.SetStreamingBuild(StreamConfig{
				Enabled:        true,
				BlockSize:      bs,
				PartitionRows:  37,
				MemBudgetBytes: budget,
				SpillDir:       t.TempDir(),
			}); err != nil {
				t.Fatal(err)
			}
			got, err := m.Create("s", cols)
			if err != nil {
				t.Fatalf("block=%d budget=%d: %v", bs, budget, err)
			}
			if !reflect.DeepEqual(got.Data, want.Data) {
				t.Errorf("block=%d budget=%d: streamed histogram differs from single-pass", bs, budget)
			}
			if got.DeltaSeq != want.DeltaSeq {
				t.Errorf("block=%d budget=%d: DeltaSeq=%d want %d", bs, budget, got.DeltaSeq, want.DeltaSeq)
			}
			if got.BuildCost != want.BuildCost {
				t.Errorf("block=%d budget=%d: BuildCost=%v want %v", bs, budget, got.BuildCost, want.BuildCost)
			}
		}
	}
}

// TestStreamingSpillMetricsAndCleanup: a budget-bound build spills, reports
// it via the obs counters, and leaves no temp files behind.
func TestStreamingSpillMetricsAndCleanup(t *testing.T) {
	db := streamDB(t, 400)
	dir := t.TempDir()
	m := NewManager(db, histogram.MaxDiff, 0)
	reg := obs.New()
	m.SetObsRegistry(reg)
	if err := m.SetStreamingBuild(StreamConfig{
		Enabled:        true,
		BlockSize:      16,
		PartitionRows:  50,
		MemBudgetBytes: 1,
		SpillDir:       dir,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("s", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("stats.build.streamed").Value(); n != 1 {
		t.Errorf("streamed=%d want 1", n)
	}
	if n := reg.Counter("stats.build.blocks").Value(); n == 0 {
		t.Error("no blocks counted")
	}
	if n := reg.Counter("stats.build.spills").Value(); n == 0 {
		t.Error("budget=1 build did not spill")
	}
	if n := reg.Counter("stats.build.spill_bytes").Value(); n == 0 {
		t.Error("spills reported but no spill bytes")
	}
	if n := reg.Gauge("stats.build.mem_peak_bytes").Value(); n <= 0 {
		t.Errorf("mem_peak_bytes=%d", n)
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Errorf("%d spill files left after successful build", n)
	}
	if n := mustTable(t, db, "s").OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after build", n)
	}
}

// streamFaultFixture returns a manager with streaming + forced spilling into
// dir, ready for fault injection.
func streamFaultFixture(t *testing.T, db *storage.Database, dir string) *Manager {
	t.Helper()
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	if err := m.SetStreamingBuild(StreamConfig{
		Enabled:        true,
		BlockSize:      8,
		PartitionRows:  40,
		MemBudgetBytes: 1,
		SpillDir:       dir,
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStreamingSpillFaultInjection: injected spill write/read failures must
// abort the build as Transient and leave every piece of published state —
// catalog, epoch, accounting, temp dir, snapshot guards — untouched.
func TestStreamingSpillFaultInjection(t *testing.T) {
	sentinel := errors.New("injected spill fault")
	for _, op := range []string{"spill-write", "spill-read"} {
		t.Run(op, func(t *testing.T) {
			db := streamDB(t, 300)
			dir := t.TempDir()
			m := streamFaultFixture(t, db, dir)
			failOp := op
			m.SetFailpoint(func(ctx context.Context, fpOp string, id ID) error {
				if fpOp == failOp {
					return sentinel
				}
				return nil
			})
			epoch := m.Epoch()
			acc := m.Snapshot()
			_, err := m.Create("s", []string{"a", "b"})
			if err == nil {
				t.Fatal("build survived injected spill fault")
			}
			if !IsTransient(err) {
				t.Errorf("%s fault not classified transient: %v", op, err)
			}
			if !errors.Is(err, sentinel) {
				t.Errorf("injected sentinel lost: %v", err)
			}
			if m.Epoch() != epoch {
				t.Error("failed build bumped the epoch")
			}
			if got := m.Snapshot(); got != acc {
				t.Errorf("failed build changed accounting: %+v -> %+v", acc, got)
			}
			if m.Has(MakeID("s", []string{"a", "b"})) {
				t.Error("failed build published a statistic")
			}
			if n := spillFiles(t, dir); n != 0 {
				t.Errorf("%d spill files left after injected %s fault", n, op)
			}
			if n := mustTable(t, db, "s").OpenSnapshots(); n != 0 {
				t.Errorf("OpenSnapshots=%d after injected %s fault", n, op)
			}
			// The fault must be recoverable: clearing it, the same build
			// succeeds and matches a plain build.
			m.SetFailpoint(nil)
			got, err := m.Create("s", []string{"a", "b"})
			if err != nil {
				t.Fatalf("retry after fault: %v", err)
			}
			ref := NewManager(db, histogram.MaxDiff, 0)
			want, err := ref.Create("s", []string{"a", "b"})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Data, want.Data) {
				t.Error("post-fault retry differs from reference build")
			}
		})
	}
}

// TestStreamingCancelMidStream: cancelling a build between blocks — after
// partials have already spilled — must delete the spill files, release the
// block iterator's snapshot guard, and leave catalog/epoch/accounting
// untouched.
func TestStreamingCancelMidStream(t *testing.T) {
	db := streamDB(t, 400)
	dir := t.TempDir()
	m := streamFaultFixture(t, db, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks := 0
	m.SetFailpoint(func(fpCtx context.Context, op string, id ID) error {
		if op == "block" {
			blocks++
			// With BlockSize 8 and PartitionRows 40, block 20 is well past
			// several spilled partials.
			if blocks == 20 {
				cancel()
			}
		}
		return nil
	})
	epoch := m.Epoch()
	acc := m.Snapshot()
	_, _, err := m.EnsureCtx(ctx, "s", []string{"a", "b"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	if blocks < 20 {
		t.Fatalf("build consumed only %d blocks; cancel point never reached", blocks)
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Errorf("%d spill files left after cancel", n)
	}
	if n := mustTable(t, db, "s").OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after cancel — snapshot guard leaked", n)
	}
	if m.Epoch() != epoch {
		t.Error("cancelled build bumped the epoch")
	}
	if got := m.Snapshot(); got != acc {
		t.Error("cancelled build changed accounting")
	}
	if m.Has(MakeID("s", []string{"a", "b"})) {
		t.Error("cancelled build published a statistic")
	}
	// The table must be fully writable again (guard released).
	if err := mustTable(t, db, "s").Insert(storage.Row{
		catalog.NewInt(1), catalog.NewString("z"), catalog.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingConcurrentBuildsAndFolds: streaming rebuilds, folding
// refreshes and DML hammer one shard concurrently; run under -race this
// proves block scans and FoldMulti never interleave on shared state. The
// final refreshed statistic must equal a fresh reference build.
func TestStreamingConcurrentBuildsAndFolds(t *testing.T) {
	db := streamDB(t, 300)
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	if err := m.SetStreamingBuild(StreamConfig{
		Enabled:        true,
		BlockSize:      16,
		PartitionRows:  64,
		MemBudgetBytes: 4 << 10,
		SpillDir:       t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIncrementalMaintenance(FoldConfig{Enabled: true, MaxFoldFraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	id := MakeID("s", []string{"a"})
	if _, err := m.Create("s", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "s")
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				td.Insert(storage.Row{
					catalog.NewInt(int64(i % 11)),
					catalog.NewString("w"),
					catalog.NewInt(int64(g)),
				})
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := m.RefreshCtx(context.Background(), id); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if s := m.Get(id); s != nil {
				_ = s.Data.Rows // read the published snapshot
			}
		}
	}()
	wg.Wait()
	if n := td.OpenSnapshots(); n != 0 {
		t.Fatalf("OpenSnapshots=%d after concurrent phase", n)
	}
	// One more refresh so the statistic reflects the final table state, then
	// compare against a fresh single-pass reference.
	if err := m.RefreshCtx(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	got := m.Get(id)
	ref := NewManager(db, histogram.MaxDiff, 0)
	want, err := ref.Create("s", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if got.FoldedRows == 0 {
		// The last refresh rebuilt (streamed): must match exactly.
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Error("final streamed rebuild differs from reference")
		}
	} else if got.Data.Rows != want.Data.Rows {
		// The last refresh folded: row counts still reconcile exactly.
		t.Errorf("folded rows=%d, reference rows=%d", got.Data.Rows, want.Data.Rows)
	}
}

// TestStreamingPeakMemoryFlat: the tracked peak build memory must stay flat
// as the table grows 10x — the O(block + partition) bound the tentpole
// promises. The gauge is a deterministic estimate of retained bytes, so the
// gate is exact, not timing-dependent.
func TestStreamingPeakMemoryFlat(t *testing.T) {
	peak := func(rows int) int64 {
		db := streamDB(t, rows)
		m := NewManager(db, histogram.MaxDiff, 0)
		reg := obs.New()
		m.SetObsRegistry(reg)
		if err := m.SetStreamingBuild(StreamConfig{
			Enabled:        true,
			BlockSize:      64,
			PartitionRows:  256,
			MemBudgetBytes: 64 << 10,
			SpillDir:       t.TempDir(),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Create("s", []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		return reg.Gauge("stats.build.mem_peak_bytes").Value()
	}
	small := peak(1_000)
	large := peak(10_000)
	if small <= 0 || large <= 0 {
		t.Fatalf("peaks not tracked: small=%d large=%d", small, large)
	}
	// 10x the rows must not move the peak past the budget headroom; allow 2x
	// for partition-boundary noise. (Unbudgeted, the peak would scale ~10x.)
	if large > 2*small && large > 80<<10 {
		t.Errorf("peak grew from %d to %d over 10x rows — not flat", small, large)
	}
}

// BenchmarkStreamingManagerBuild is the end-to-end streaming build the
// statsbuild-bench CI job watches with -benchmem: per-build allocations must
// track the block/partition bounds, not the table size.
func BenchmarkStreamingManagerBuild(b *testing.B) {
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("s",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.String},
	)); err != nil {
		b.Fatal(err)
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		b.Fatal(err)
	}
	td, err := db.Table("s")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if err := td.Insert(storage.Row{
			catalog.NewInt(int64(i % 100)),
			catalog.NewString(fmt.Sprintf("g%d", i%13)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	if err := m.SetStreamingBuild(StreamConfig{
		Enabled:        true,
		BlockSize:      512,
		PartitionRows:  4096,
		MemBudgetBytes: 256 << 10,
		SpillDir:       b.TempDir(),
	}); err != nil {
		b.Fatal(err)
	}
	id := MakeID("s", []string{"a", "b"})
	if _, err := m.Create("s", []string{"a", "b"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RefreshCtx(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
}
