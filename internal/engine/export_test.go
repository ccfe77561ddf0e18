package engine

// EPCResident returns the number of EPC pages currently resident for this
// thread (0 when paging is disabled).
func (t *Thread) EPCResident() int { return t.epcCount }

// EPCBudgetPages returns the thread's private resident-set budget in
// pages (0 when paging is disabled).
func (t *Thread) EPCBudgetPages() int { return len(t.epcRing) }
