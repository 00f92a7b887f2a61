package place

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
			err := ValidateRequest(a.tree, req)
			if err == nil {
				a.tree.Save(a.ck)
				var res *Reservation
				if res, err = a.placer.Place(req); err == nil {
					d := res.Delta()
					a.tree.RestoreSnapshot(a.ck)
					a.tree.Apply(d)
					grants[i] = a.admitted(req, res, d)
					continue
				}
				a.tree.RestoreSnapshot(a.ck)
			}
			a.foldFailure(err)
			errs[i] = WithBatchIndex(err, i)
		}
	})
	return grants, errs
}
