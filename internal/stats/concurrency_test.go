package stats

import (
	"context"
	"sync"
	"testing"

	"autostats/internal/histogram"
)

// TestManagerConcurrentMutation hammers the manager from many goroutines —
// creates, drops, refreshes, drop-list flips and reads — and relies on the
// race detector to catch unsynchronized access. Run with go test -race.
func TestManagerConcurrentMutation(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	cols := [][]string{{"a"}, {"b"}, {"a", "b"}, {"b", "a"}}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := cols[(w+i)%len(cols)]
				id := MakeID("t", c)
				switch (w + i) % 5 {
				case 0:
					if _, err := m.Create("t", c); err != nil {
						t.Errorf("create: %v", err)
						return
					}
				case 1:
					m.Drop(id)
				case 2:
					// Refresh errors when another goroutine dropped the
					// statistic first; only unexpected errors matter.
					if m.Has(id) {
						_ = m.RefreshCtx(context.Background(), id)
					}
				case 3:
					m.AddToDropList(id)
					m.RemoveFromDropList(id)
				default:
					for _, st := range m.StatsForColumn("t", c[0]) {
						_ = st.Data.Leading.Distinct // read published data
					}
					_ = m.Epoch()
					_ = m.Snapshot()
					m.Maintained()
				}
			}
		}(w)
	}
	wg.Wait()

	// The manager must still be coherent: every surviving statistic readable.
	for _, st := range m.All() {
		if st.Data == nil || st.Data.Leading == nil {
			t.Errorf("statistic %s has nil data after concurrent churn", st.ID)
		}
	}
}

// TestEpochMonotoneUnderConcurrency: the epoch never decreases, and ends
// having advanced at least once per successful mutation batch.
func TestEpochMonotoneUnderConcurrency(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := m.Epoch()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := m.Epoch()
			if e < last {
				t.Error("epoch went backwards")
				return
			}
			last = e
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := m.Create("t", []string{"a"}); err != nil {
			t.Fatal(err)
		}
		m.Drop(MakeID("t", []string{"a"}))
	}
	close(stop)
	wg.Wait()
	if m.Epoch() < 40 {
		t.Errorf("epoch %d after 40 mutations", m.Epoch())
	}
}
