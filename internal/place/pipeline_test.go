package place

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestCommitPipelineMixedStress hammers one combiner with every
// lifecycle verb at once — single admits, batched admits, resizes, and
// releases from concurrent goroutines — and then checks conservation:
// no non-rejection failures, every admission released, and the tree
// drained back to pristine. Run under -race in CI (and in `make
// determinism` at -cpu=1,4,8), it is the memory-safety gate for the
// flat-combining queue and the grant locks ordered before it.
func TestCommitPipelineMixedStress(t *testing.T) {
	tr := testTree()
	adm := NewAdmitter(tr, &fitResizer{firstFit{tree: tr}})

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 100))
			var live []*Admitted
			release := func(j int) {
				live[j].Release()
				live = append(live[:j], live[j+1:]...)
			}
			for i := 0; i < iters; i++ {
				id := int64(w*iters + i)
				switch r.Intn(4) {
				case 0: // batched admits through the combiner's batch path
					n := 2 + r.Intn(3)
					reqs := make([]*Request, n)
					for k := range reqs {
						g := stressTenant(r.Intn(50))
						reqs[k] = &Request{ID: id<<8 | int64(k), Graph: g, Model: g}
					}
					grants, errs := adm.AdmitBatch(reqs)
					for k, g := range grants {
						if g != nil {
							live = append(live, g)
						} else if !errors.Is(errs[k], ErrRejected) {
							t.Errorf("worker %d: batch error: %v", w, errs[k])
							return
						}
					}
				case 1: // resize a live grant up or down
					if len(live) == 0 {
						continue
					}
					ng := stressTenant(r.Intn(50))
					if err := live[r.Intn(len(live))].Resize(ng); err != nil && !errors.Is(err, ErrRejected) {
						t.Errorf("worker %d: resize error: %v", w, err)
						return
					}
				default: // single admit
					g := stressTenant(r.Intn(50))
					grant, err := adm.Place(&Request{ID: id, Graph: g, Model: g})
					if err != nil {
						if !errors.Is(err, ErrRejected) {
							t.Errorf("worker %d: admit error: %v", w, err)
							return
						}
						if len(live) > 0 {
							release(0)
						}
						continue
					}
					live = append(live, grant)
				}
				for len(live) > 5 {
					release(r.Intn(len(live)))
				}
			}
			for _, g := range live {
				g.Release()
			}
		}(w)
	}
	wg.Wait()

	pristine(t, tr)
	st := adm.Stats()
	if st.Failed != 0 {
		t.Errorf("%d non-rejection failures", st.Failed)
	}
	if st.Admitted != st.Released {
		t.Errorf("admitted %d but released %d", st.Admitted, st.Released)
	}
	if st.Admitted == 0 {
		t.Error("stress admitted nothing")
	}
}
