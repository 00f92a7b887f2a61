package place

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// firstFit is a minimal Txn-backed placer used to exercise the Admitter
// without depending on the algorithm packages (which import place):
// tiers are spread greedily over the leftmost servers with free slots.
type firstFit struct {
	tree *topology.Tree
}

func (p *firstFit) Name() string { return "first-fit" }

func (p *firstFit) Place(req *Request) (*Reservation, error) {
	tx := NewTxn(p.tree, req.Model)
	for t := 0; t < req.Model.Tiers(); t++ {
		need := req.Model.TierSize(t)
		for _, s := range p.tree.Servers() {
			if need == 0 {
				break
			}
			k := p.tree.SlotsFree(s)
			if k > need {
				k = need
			}
			if k == 0 {
				continue
			}
			if err := tx.Place(s, t, k); err != nil {
				tx.ReleaseAll()
				return nil, fmt.Errorf("%w: %v", ErrRejected, err)
			}
			need -= k
		}
		if need > 0 {
			tx.ReleaseAll()
			return nil, fmt.Errorf("%w: out of slots", ErrRejected)
		}
	}
	if err := tx.SyncAll(); err != nil {
		tx.ReleaseAll()
		return nil, err
	}
	return tx.Commit(), nil
}

// stressTenant builds a small two-tier tenant whose size depends on i,
// so concurrent requests differ.
func stressTenant(i int) *tag.Graph {
	g := tag.New(fmt.Sprintf("stress-%d", i))
	a := g.AddTier("a", 1+i%3)
	b := g.AddTier("b", 1+(i/3)%3)
	g.AddEdge(a, b, 10, 10)
	return g
}

// pristine asserts the tree holds no slots and no bandwidth.
func pristine(t *testing.T, tr *topology.Tree) {
	t.Helper()
	if tr.SlotsFree(tr.Root()) != tr.SlotsTotal(tr.Root()) {
		t.Errorf("slots not restored: %d/%d free",
			tr.SlotsFree(tr.Root()), tr.SlotsTotal(tr.Root()))
	}
	for l := 0; l <= tr.Height(); l++ {
		if v := tr.LevelReserved(l); v > 1e-6 {
			t.Errorf("level %d still holds %g Mbps reserved", l, v)
		}
	}
}

// TestAdmitterConcurrentStress hammers one shared tree with concurrent
// Place/Release from many goroutines — the race-detector test of the
// concurrent admission path. After all tenants depart the ledger must
// be exactly pristine.
func TestAdmitterConcurrentStress(t *testing.T) {
	tr := testTree() // 8 servers × 4 slots
	adm := NewAdmitter(tr, &firstFit{tree: tr})

	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			var live []*Admitted
			for i := 0; i < iters; i++ {
				g := stressTenant(w*iters + i)
				ad, _, err := adm.Place(&Request{ID: int64(w*iters + i), Graph: g, Model: g})
				if err != nil {
					if !errors.Is(err, ErrRejected) {
						t.Errorf("worker %d: unexpected error: %v", w, err)
						return
					}
					// Full datacenter: make room and move on.
					for _, a := range live {
						a.Release()
					}
					live = live[:0]
					continue
				}
				live = append(live, ad)
				if len(live) > 4 || r.Intn(2) == 0 {
					j := r.Intn(len(live))
					live[j].Release()
					live = append(live[:j], live[j+1:]...)
				}
			}
			for _, a := range live {
				a.Release()
			}
		}()
	}
	wg.Wait()

	pristine(t, tr)
	stats := adm.Stats()
	if stats.Failed != 0 {
		t.Errorf("%d non-rejection failures", stats.Failed)
	}
	if stats.Admitted != stats.Released {
		t.Errorf("admitted %d but released %d", stats.Admitted, stats.Released)
	}
	if stats.Admitted+stats.Rejected != goroutines*iters {
		t.Errorf("admitted %d + rejected %d != %d attempts", stats.Admitted, stats.Rejected, goroutines*iters)
	}
	if stats.Admitted == 0 {
		t.Error("stress admitted nothing; tree too small for the workload?")
	}
}

// TestAdmitterRejectionRollback: concurrent oversized requests are all
// rejected and leave the shared ledger untouched, even interleaved with
// successful admissions.
func TestAdmitterRejectionRollback(t *testing.T) {
	tr := testTree()
	adm := NewAdmitter(tr, &firstFit{tree: tr})

	tooBig := tag.New("big")
	tooBig.AddTier("a", tr.SlotsTotal(tr.Root())+1)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := adm.Place(&Request{Graph: tooBig, Model: tooBig}); !errors.Is(err, ErrRejected) {
					t.Errorf("oversized request: err = %v, want ErrRejected", err)
				}
				g := stressTenant(i)
				if ad, _, err := adm.Place(&Request{Graph: g, Model: g}); err == nil {
					ad.Release()
				}
			}
		}()
	}
	wg.Wait()
	pristine(t, tr)
}

// TestAdmittedReleaseIdempotent: double release from racing goroutines
// frees the tenant exactly once.
func TestAdmittedReleaseIdempotent(t *testing.T) {
	tr := testTree()
	adm := NewAdmitter(tr, &firstFit{tree: tr})
	g := stressTenant(1)
	ad, _, err := adm.Place(&Request{Graph: g, Model: g})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); ad.Release() }()
	}
	wg.Wait()
	pristine(t, tr)
	if s := adm.Stats(); s.Released != 1 {
		t.Errorf("released counter = %d, want 1", s.Released)
	}
}

// TestGrantDoubleReleaseRace: concurrent double-Release of many grants
// frees each tenant exactly once — counters match and the ledger drains
// to pristine. The "locked" subtest name is kept from when a second
// admission path existed; it is the one Admitter.
func TestGrantDoubleReleaseRace(t *testing.T) {
	t.Run("locked", func(t *testing.T) {
		tr := testTree()
		adm := NewAdmitter(tr, &firstFit{tree: tr})
		var grants []*Admitted
		for i := 0; len(grants) < 6; i++ {
			g := stressTenant(i)
			grant, _, err := adm.Place(&Request{ID: int64(i), Graph: g, Model: g})
			if err != nil {
				t.Fatalf("admit %d: %v", i, err)
			}
			grants = append(grants, grant)
		}
		var wg sync.WaitGroup
		for _, g := range grants {
			for k := 0; k < 4; k++ {
				wg.Add(1)
				go func(g *Admitted) {
					defer wg.Done()
					g.Release()
				}(g)
			}
		}
		wg.Wait()
		pristine(t, tr)
		st := adm.Stats()
		if st.Released != int64(len(grants)) {
			t.Errorf("released counter = %d, want %d (double releases must not count)",
				st.Released, len(grants))
		}
		if st.Admitted != int64(len(grants)) {
			t.Errorf("admitted counter = %d, want %d", st.Admitted, len(grants))
		}
	})
}

// TestCommitPipelineMixedStress hammers one admitter's mutex with every
// lifecycle verb at once — single admits, runs of back-to-back admits,
// resizes, and releases from concurrent goroutines — and then checks
// conservation: no non-rejection failures, every admission released,
// and the tree drained back to pristine. Run under -race in CI (and in
// `make determinism` at -cpu=1,4,8), it is the memory-safety gate for
// the admitter's critical sections and the grant locks ordered before
// them. The name is kept from the commit pipeline the mutex replaced.
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
				case 0: // a batch: back-to-back admits, each through Place
					for k, n := 0, 2+r.Intn(3); k < n; k++ {
						g := stressTenant(r.Intn(50))
						grant, _, err := adm.Place(&Request{ID: id<<8 | int64(k), Graph: g, Model: g})
						if err == nil {
							live = append(live, grant)
						} else if !errors.Is(err, ErrRejected) {
							t.Errorf("worker %d: batch error: %v", w, err)
							return
						}
					}
				case 1: // resize a live grant up or down
					if len(live) == 0 {
						continue
					}
					ng := stressTenant(r.Intn(50))
					if _, err := live[r.Intn(len(live))].Resize(ng); err != nil && !errors.Is(err, ErrRejected) {
						t.Errorf("worker %d: resize error: %v", w, err)
						return
					}
				default: // single admit
					g := stressTenant(r.Intn(50))
					grant, _, err := adm.Place(&Request{ID: id, Graph: g, Model: g})
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
