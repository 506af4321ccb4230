package stats

// QErrorSummary aggregates execution-feedback accuracy for predicates whose
// estimates depend on one column: how many times the optimizer's estimate for
// a predicate over table.Column was compared against the executor's actual
// row count, and how wrong it was. Q-error is max(est,actual)/min(est,actual)
// with both sides floored at one row, so 1.0 is a perfect estimate and the
// value is symmetric in over- and under-estimation.
type QErrorSummary struct {
	Table  string
	Column string
	// Count is the number of observations backing the summary.
	Count int64
	// MaxQ is the worst q-error observed in the current evidence window.
	MaxQ float64
	// MeanQ is the geometric mean q-error of the window.
	MeanQ float64
}

// FeedbackProvider supplies execution-feedback accuracy summaries to the
// maintenance policy. Implementations must only report evidence gathered
// against the CURRENT statistics epoch and data version — any refresh or DML
// starts a fresh window — so a feedback-triggered refresh cannot re-fire on
// the evidence that caused it. The interface is defined here (and implemented
// by internal/feedback) to keep the dependency pointing feedback -> stats.
type FeedbackProvider interface {
	QErrorSummaries() []QErrorSummary
}

// SetFeedbackProvider installs (or, with nil, removes) the execution-feedback
// source consulted by RunMaintenanceCtx. Safe for concurrent use.
func (m *Manager) SetFeedbackProvider(p FeedbackProvider) {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	m.feedback = p
}

// feedbackProvider returns the installed provider, or nil.
func (m *Manager) feedbackProvider() FeedbackProvider {
	m.cfgMu.RLock()
	defer m.cfgMu.RUnlock()
	return m.feedback
}
