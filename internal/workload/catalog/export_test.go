package catalog

// NewBudgeted returns an empty in-memory root store that keeps at most
// budget bytes of materialized workloads, so tests can force evictions
// the 32 MiB default never makes.
func NewBudgeted(budget int64) *Catalog {
	c := New()
	c.budget = budget
	return c
}
