package place

import "errors"

// AdmitBatch admits a batch of requests in ONE critical section instead
// of re-acquiring the admission lock per request: one combiner
// submission, then the same per-element validate → save → place →
// restore → apply bracket Place runs, against the ledger state its
// predecessors left behind — so decisions and the ledger match admitting
// the batch sequentially on an otherwise idle admitter. Grants and
// errors are parallel to reqs: exactly one of grants[i], errs[i] is
// non-nil. A batch is not atomic — earlier admissions stand when later
// elements reject — and every non-nil error carries the failing
// element's index (RejectionError.BatchIndex).
func (a *Admitter) AdmitBatch(reqs []*Request) ([]*Admitted, []error) {
	grants := make([]*Admitted, len(reqs))
	errs := make([]error, len(reqs))
	a.comb.do(&a.mu, func() {
		for i, req := range reqs {
			if err := ValidateRequest(a.tree, req); err != nil {
				a.failed.Add(1)
				errs[i] = WithBatchIndex(err, i)
				continue
			}
			a.tree.Save(a.ck)
			res, err := a.placer.Place(req)
			if err != nil {
				a.tree.RestoreSnapshot(a.ck)
				if errors.Is(err, ErrRejected) {
					a.rejected.Add(1)
				} else {
					a.failed.Add(1)
				}
				errs[i] = WithBatchIndex(err, i)
				continue
			}
			d := res.Delta()
			a.tree.RestoreSnapshot(a.ck)
			a.tree.Apply(d)
			a.admitted.Add(1)
			res.released = true // inspection-only: departures commit the delta
			grants[i] = &Admitted{a: a, res: res, delta: d, graph: resizableGraph(req), ha: req.HA}
		}
	})
	return grants, errs
}
