package guarantee

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentBatchChurn hammers one service from many goroutines
// mixing AdmitBatch with single Admit, Resize, and Release (run under
// -race), so batches interleave with other callers' operations on the
// same shards. Afterwards every surviving grant is released and the
// fleet must drain to exactly zero.
func TestConcurrentBatchChurn(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2), WithPolicy("rr"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var mu sync.Mutex
	var leftover []Grant

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch i % 3 {
				case 0:
					// Batched admissions: hold some grants beyond the
					// loop so releases race with other workers' batches.
					reqs := make([]Request, 3)
					for j := range reqs {
						reqs[j] = Request{ID: int64(w*1000 + i*10 + j), Graph: testGraph(1+j%3, 1)}
					}
					grants, err := svc.AdmitBatch(ctx, reqs)
					if err != nil && ReasonOf(err) == "" {
						t.Errorf("untyped batch error: %v", err)
					}
					for j, g := range grants {
						if g == nil {
							continue
						}
						if j == 0 {
							mu.Lock()
							leftover = append(leftover, g)
							mu.Unlock()
						} else {
							g.Release()
						}
					}
				case 1:
					grant, err := svc.Admit(ctx, Request{ID: int64(w*1000 + i), Graph: testGraph(1+i%3, 1)})
					if err != nil {
						if ReasonOf(err) == "" {
							t.Errorf("untyped admit error: %v", err)
						}
						continue
					}
					if err := grant.Resize(ctx, testGraph(2+i%2, 1)); err != nil && ReasonOf(err) == "" {
						t.Errorf("untyped resize error: %v", err)
					}
					grant.Release()
				case 2:
					// Release a random held grant from any worker, so
					// releases interleave with in-flight batches.
					mu.Lock()
					var g Grant
					if n := len(leftover); n > 0 {
						g = leftover[n-1]
						leftover = leftover[:n-1]
					}
					mu.Unlock()
					if g != nil {
						g.Release()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for _, g := range leftover {
		g.Release()
	}
	for i, ld := range svc.Loads() {
		if ld.SlotsUsed != 0 || ld.Tenants != 0 || ld.ReservedMbps != 0 {
			t.Errorf("shard %d not drained after batch churn: %+v", i, ld)
		}
	}
}
