package guarantee

import (
	"context"
	"testing"
)

// BenchmarkConcurrentChurn is the rent test of a shard's admission
// mutex: parallel callers admit and release small tenants on one shard,
// so every op contends for the same critical section. Compare two
// builds with alternated `go test -c` binaries at the same -cpu list:
//
//	go test -c -o churn.test ./guarantee
//	./churn.test -test.run '^$' -test.bench ConcurrentChurn -test.cpu 1,2
func BenchmarkConcurrentChurn(b *testing.B) {
	svc, err := New(testSpec())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	g := testGraph(2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			grant, err := svc.Admit(ctx, Request{Graph: g})
			if err != nil {
				b.Error(err)
				return
			}
			grant.Release()
		}
	})
}
