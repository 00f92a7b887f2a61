package guarantee

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cloudmirror/internal/place"
)

// The WAL group commit contract: concurrent durable operations
// coalesce their appends into shared fsyncs, and a batch pays exactly
// one flush for all its records — without ever acknowledging an
// operation whose record is not yet durable.

// newDurable builds a single-shard durable service with snapshots
// pushed far out, so every fsync observed below belongs to the group
// commit, not to a rotation.
func newDurable(t *testing.T, dir string) Service {
	t.Helper()
	svc, err := New(testSpec(), WithDurability(dir), WithSnapshotEvery(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestGroupCommitBatchOneFsync: a durable AdmitBatch writes one record
// per admission but flushes once — the flush barrier covers the whole
// batch.
func TestGroupCommitBatchOneFsync(t *testing.T) {
	svc := newDurable(t, t.TempDir())
	ctx := context.Background()
	defer svc.Close(ctx)
	dur := svc.Durability()

	const n = 16
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: int64(i), Graph: churnGraph(fmt.Sprintf("b%d", i), 1, 1, 10, 10)}
	}
	before := dur.Stats().Fsyncs
	grants, err := svc.AdmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grants {
		if g == nil {
			t.Fatalf("batch element %d not admitted", i)
		}
	}
	if got := dur.Stats().Fsyncs - before; got != 1 {
		t.Fatalf("batch of %d admissions paid %d fsyncs, want exactly 1", n, got)
	}
	if st := dur.Stats(); st.Records != n {
		t.Fatalf("log holds %d records, want %d", st.Records, n)
	}
}

// TestGroupCommitConcurrentDurable: concurrent durable admits and
// releases through the flush barrier never lose an acknowledged
// operation — a simulated crash right after the run recovers every
// grant the callers still hold — and the coalesced fsync count stays
// at or below the operation count.
func TestGroupCommitConcurrentDurable(t *testing.T) {
	dir := t.TempDir()
	svc := newDurable(t, dir)
	ctx := context.Background()

	const workers = 8
	const each = 12
	base := svc.Durability().Stats().Fsyncs // creation fsyncs, not flushes
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	held := map[int64]bool{} // grant keys kept (acknowledged, never released)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := int64(w*each + i)
				g, err := svc.Admit(ctx, Request{ID: id, Graph: churnGraph(fmt.Sprintf("c%d", id), 1, 1, 5, 5)})
				if err != nil {
					if !errors.Is(err, place.ErrRejected) {
						t.Errorf("worker %d: %v", w, err)
					}
					continue
				}
				if i%3 == 0 {
					g.Release()
					continue
				}
				mu.Lock()
				held[g.Key()] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	st := svc.Durability().Stats()
	if int(st.Records) < len(held) {
		t.Fatalf("log holds %d records but %d grants were acknowledged and held", st.Records, len(held))
	}
	if st.Fsyncs-base > st.Records {
		t.Fatalf("%d flush fsyncs for %d records: flushes did not coalesce", st.Fsyncs-base, st.Records)
	}

	// Crash and recover: every held (acknowledged) grant must survive.
	svc.(*service).dur.abandon()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close(ctx)
	got := map[int64]bool{}
	for _, g := range re.Durability().Grants() {
		got[g.Key()] = true
	}
	for key := range held {
		if !got[key] {
			t.Errorf("acknowledged grant key=%d missing after recovery", key)
		}
	}
}
