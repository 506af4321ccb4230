package oracle

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
)

// TestPartitionMergeDifferential is the merge oracle: statistics built
// partition-parallel must be EXACTLY the statistics a single-pass build
// produces — same buckets, same boundaries, same densities — and every
// estimate derived from them must survive the bucket-boundary differential
// sweep across all comparison operators, at every partition count.
func TestPartitionMergeDifferential(t *testing.T) {
	ref, err := New(Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	refStat, err := ref.Mgr.Create("orders", []string{"o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(refStat.Data.Leading.Buckets) < 2 {
		t.Fatalf("reference histogram too small: %d buckets", len(refStat.Data.Leading.Buckets))
	}

	ops := []string{">", ">=", "<", "<=", "="}
	for _, par := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("partitions=%d", par), func(t *testing.T) {
			h, err := New(Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			h.Mgr.SetBuildParallelism(par)
			st, err := h.Mgr.Create("orders", []string{"o_orderdate"})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Data, refStat.Data) {
				t.Fatalf("merged statistic differs from single-pass build at %d partitions", par)
			}
			// Boundary sweep: probe each bucket edge ±1 with every operator
			// and check the chosen plan's execution against the reference
			// evaluator.
			checked := 0
			for _, b := range st.Data.Leading.Buckets {
				for _, edge := range []catalog.Datum{b.Lo, b.Hi} {
					for delta := int64(-1); delta <= 1; delta++ {
						for _, op := range ops {
							sql := fmt.Sprintf("SELECT * FROM orders WHERE o_orderdate %s %s",
								op, catalog.NewDate(edge.I+delta))
							sel, err := sqlparser.ParseSelect(h.DB.Schema, sql)
							if err != nil {
								t.Fatalf("%s: %v", sql, err)
							}
							f, err := h.checkQuery(sel)
							if err != nil {
								t.Fatalf("%s: %v", sql, err)
							}
							if f != nil && f.Detail != "budget" {
								t.Errorf("partitions=%d: boundary mismatch: %s", par, f)
							}
							checked++
						}
					}
				}
			}
			t.Logf("partitions=%d: %d boundary probes, statistic identical to single-pass", par, checked)
		})
	}
}

// TestPartitionCountDeterminism: rebuilding the same statistic at different
// parallelism — including refreshes — must never change it, with sampling
// off (exact merge) and on (the seeded sample is drawn before partitioning,
// so it is identical at any parallelism).
func TestPartitionCountDeterminism(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		name := "exact"
		if sampled {
			name = "sampled"
		}
		t.Run(name, func(t *testing.T) {
			var want *stats.Statistic
			for _, par := range []int{1, 2, 4, 7} {
				h, err := New(Options{Seed: 17})
				if err != nil {
					t.Fatal(err)
				}
				if sampled {
					if err := h.Mgr.SetSampling(stats.SampleConfig{Fraction: 0.4, MinRows: 50, Seed: 3}); err != nil {
						t.Fatal(err)
					}
				}
				h.Mgr.SetBuildParallelism(par)
				st, err := h.Mgr.Create("lineitem", []string{"l_quantity", "l_partkey"})
				if err != nil {
					t.Fatal(err)
				}
				// A refresh re-runs the build path; it must be just as
				// deterministic as the initial create.
				if err := h.Mgr.RefreshCtx(context.Background(), st.ID); err != nil {
					t.Fatal(err)
				}
				st = h.Mgr.Get(st.ID)
				if want == nil {
					want = st
					continue
				}
				if !reflect.DeepEqual(st.Data, want.Data) {
					t.Errorf("parallelism %d produced a different statistic than parallelism 1", par)
				}
			}
		})
	}
}
