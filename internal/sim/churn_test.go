package sim

import (
	"fmt"
	"reflect"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

func churnConfig(arrivals, shards int, policy string) ChurnConfig {
	pool := workload.BingLike(1)
	workload.ScaleToBmax(pool, 800)
	return ChurnConfig{
		Spec:      topology.SmallSpec(),
		NewPlacer: func(t *topology.Tree) place.Placer { return cloudmirror.New(t) },
		Pool:      pool,
		Shards:    shards,
		Policy:    policy,
		Arrivals:  arrivals,
		Load:      0.9,
		MeanDwell: 1,
		Seed:      1,
	}
}

// renderChurn flattens a result into the comparable string form the CLI
// prints, so determinism is checked on output identity, not timing.
func renderChurn(r *ChurnResult) string {
	s := fmt.Sprintf("%s/%s shards=%d arr=%d adm=%d rej=%d dep=%d fo=%d dur=%.6f rate=%.6f rr=%.6f util=%.6f\n",
		r.Placer, r.Policy, r.Shards, r.Arrivals, r.Admitted, r.Rejected, r.Departures,
		r.Failovers, r.Duration, r.AdmissionRate, r.RejectionRatio, r.Utilization)
	for i, sh := range r.PerShard {
		s += fmt.Sprintf("  %d: %+v\n", i, sh)
	}
	return s
}

// TestChurnDeterminism: equal configs give identical results at any
// Workers value — the event loop is serial, Workers only parallelizes
// shard construction and the final drain. Run with -cpu=1,4,8 so the
// Workers:0 (GOMAXPROCS) case exercises different pool sizes. The
// "planners=0" name level is kept from when a second admission path
// existed; it is the one Admitter.
func TestChurnDeterminism(t *testing.T) {
	for _, policy := range []string{"rr", "least", "p2c"} {
		t.Run(policy+"/planners=0", func(t *testing.T) {
			var ref *ChurnResult
			for _, workers := range []int{1, 4, 8, 0} {
				cfg := churnConfig(400, 4, policy)
				cfg.Workers = workers
				res, err := Churn(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("workers=%d result differs:\n--- want ---\n%s--- got ---\n%s",
						workers, renderChurn(ref), renderChurn(res))
				}
			}
		})
	}
}

// TestChurnSeedSensitivity: different seeds must produce different
// workloads (with overwhelming probability), so no RNG state is
// accidentally shared or fixed.
func TestChurnSeedSensitivity(t *testing.T) {
	a, err := Churn(churnConfig(400, 4, "p2c"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(400, 4, "p2c")
	cfg.Seed = 2
	b, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if renderChurn(a) == renderChurn(b) {
		t.Error("seeds 1 and 2 produced identical churn results")
	}
}

// TestChurnConservation: counters partition and per-shard slices sum to
// the fleet totals.
func TestChurnConservation(t *testing.T) {
	res, err := Churn(churnConfig(600, 3, "least"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != 600 {
		t.Errorf("arrivals = %d, want 600", res.Arrivals)
	}
	if res.Admitted+res.Rejected != res.Arrivals {
		t.Errorf("admitted %d + rejected %d != arrivals %d", res.Admitted, res.Rejected, res.Arrivals)
	}
	if res.Departures > res.Admitted {
		t.Errorf("departures %d > admitted %d", res.Departures, res.Admitted)
	}
	var shardAdmitted, live int
	for _, s := range res.PerShard {
		shardAdmitted += s.Admitted
		live += s.LiveTenants
		if s.Utilization < 0 || s.Utilization > 1 {
			t.Errorf("shard utilization %g outside [0,1]", s.Utilization)
		}
	}
	if shardAdmitted != res.Admitted {
		t.Errorf("per-shard admitted sums to %d, want %d", shardAdmitted, res.Admitted)
	}
	if live != res.Admitted-res.Departures {
		t.Errorf("live tenants %d != admitted %d - departed %d", live, res.Admitted, res.Departures)
	}
	if res.Duration <= 0 || res.AdmissionRate <= 0 {
		t.Errorf("non-positive duration %g or rate %g", res.Duration, res.AdmissionRate)
	}
}

// TestChurnSingleShardMatchesPolicies: with one shard every policy
// degenerates to the same dispatch, so results must be identical.
func TestChurnSingleShardMatchesPolicies(t *testing.T) {
	var ref *ChurnResult
	for _, policy := range []string{"rr", "least", "p2c"} {
		res, err := Churn(churnConfig(300, 1, policy))
		if err != nil {
			t.Fatal(err)
		}
		res.Policy = "" // the one field allowed to differ
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("policy %q diverges on a single shard:\n--- want ---\n%s--- got ---\n%s",
				policy, renderChurn(ref), renderChurn(res))
		}
	}
}

func TestChurnValidation(t *testing.T) {
	cfg := churnConfig(100, 2, "rr")
	cfg.Pool = nil
	if _, err := Churn(cfg); err == nil {
		t.Error("empty pool accepted")
	}
	cfg = churnConfig(0, 2, "rr")
	if _, err := Churn(cfg); err == nil {
		t.Error("zero arrivals accepted")
	}
	cfg = churnConfig(100, 0, "rr")
	if _, err := Churn(cfg); err == nil {
		t.Error("zero shards accepted")
	}
	cfg = churnConfig(100, 2, "no-such-policy")
	if _, err := Churn(cfg); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestChurnResizeDeterminism: the churn-with-resize workload is a pure
// function of the config too — equal configs give identical results at
// any Workers value, with elastic scaling events interleaved through
// the guarantee API. The subtest name is kept from when a second
// admission path existed; it is the one Admitter.
func TestChurnResizeDeterminism(t *testing.T) {
	t.Run("planners=0", func(t *testing.T) {
		var ref *ChurnResult
		for _, workers := range []int{1, 4, 0} {
			cfg := churnConfig(400, 2, "least")
			cfg.ResizeProb = 0.4
			cfg.Workers = workers
			res, err := Churn(cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("workers=%d result differs:\n--- want ---\n%s--- got ---\n%s",
					workers, renderChurn(ref), renderChurn(res))
			}
		}
		if ref.Resized == 0 {
			t.Fatalf("degenerate workload: no resizes committed (rejected %d)", ref.ResizeRejected)
		}
	})
}
