package sim

import (
	"fmt"
	"strings"
	"testing"

	"cloudmirror/internal/place"
)

// enforceChurnConfig is the shared scenario: churn plus resizes with
// the enforcement dataplane attached.
func enforceChurnConfig(arrivals int, workers int) ChurnConfig {
	cfg := churnConfig(arrivals, 2, "least")
	cfg.ResizeProb = 0.2
	cfg.Enforce = true
	cfg.EnforceEvery = 16
	cfg.Load = 0.7
	cfg.Workers = workers
	return cfg
}

// renderEnforce flattens the enforcement slice of a churn result for
// output-identity comparison.
func renderEnforce(r *ChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", renderChurn(r))
	e := r.Enforcement
	fmt.Fprintf(&b, "enf periods=%d iters=%d tenants=%d pairs=%d minratio=%.9f g=%.6f a=%.6f s=%.6f ev=%+v\n",
		e.Periods, e.Iterations, e.Tenants, e.Pairs, e.MinRatio,
		e.GuaranteedMbps, e.AchievedMbps, e.SpareMbps, e.Events)
	return b.String()
}

// TestEnforceChurnInvariant is the end-to-end guarantee of the repo:
// under churn and elastic resizes, every admitted tenant's achieved
// bandwidth covers its (demand-bounded) guarantee in every control
// period, spare capacity is redistributed work-conservingly, and the
// dataplane is maintained incrementally — lifecycle counters match the
// control plane's and the fabric is imaged exactly once per shard.
func TestEnforceChurnInvariant(t *testing.T) {
	cfg := enforceChurnConfig(300, 0)
	res, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Enforcement
	if e == nil || e.Periods == 0 {
		t.Fatalf("no control periods ran: %+v", e)
	}
	// The invariant: achieved >= min(demand, guarantee) for every
	// active pair of every tenant in every period (1e-4 relative slack
	// absorbs the ledger's own float epsilon).
	if e.MinRatio < 1-1e-4 {
		t.Errorf("MinRatio = %.9f, want >= 1: an admitted tenant's guarantee was broken", e.MinRatio)
	}
	// Work conservation produced a surplus on top of the guarantees.
	if e.SpareMbps < 0 {
		t.Errorf("SpareMbps = %g, want >= 0", e.SpareMbps)
	}

	// Incremental updates, by event count: every admission, resize,
	// and release the simulator committed reached the dataplane — and
	// nothing was rebuilt (one fabric image per shard, ever).
	ev := e.Events
	if ev.Admitted != int64(res.Admitted) {
		t.Errorf("dataplane admitted %d, control plane %d", ev.Admitted, res.Admitted)
	}
	if ev.Resized != int64(res.Resized) {
		t.Errorf("dataplane resized %d, control plane %d", ev.Resized, res.Resized)
	}
	if ev.Released != ev.Admitted {
		t.Errorf("dataplane released %d of %d admitted after the drain", ev.Released, ev.Admitted)
	}
	if ev.FabricBuilds != int64(res.Shards) {
		t.Errorf("FabricBuilds = %d, want one per shard (%d)", ev.FabricBuilds, res.Shards)
	}
	if ev.Skipped != 0 {
		t.Errorf("%d events skipped in a TAG-priced run", ev.Skipped)
	}
}

// TestEnforceChurnDeterminism: the enforcement-aware churn is
// byte-identical at any worker count — enforcement runs serially
// inside the event loop and draws only from the workload RNG. Run
// with -cpu=1,4,8 (make determinism) so GOMAXPROCS varies too.
func TestEnforceChurnDeterminism(t *testing.T) {
	var ref string
	for _, workers := range []int{1, 4, 8, 0} {
		res, err := Churn(enforceChurnConfig(160, workers))
		if err != nil {
			t.Fatal(err)
		}
		out := renderEnforce(res)
		if ref == "" {
			ref = out
			continue
		}
		if out != ref {
			t.Errorf("workers=%d diverged:\n%s\nwant:\n%s", workers, out, ref)
		}
	}
}

// TestEnforceOffDrawsNothing: attaching enforcement must not perturb
// an enforcement-free workload — the arrival/admission sequence of
// Enforce=false matches the pre-enforcement behavior bit for bit.
func TestEnforceOffDrawsNothing(t *testing.T) {
	cfg := churnConfig(200, 2, "rr")
	plain, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Enforce = true
	enforced, err := Churn(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	enforced.Enforcement = nil
	if renderChurn(plain) != renderChurn(enforced) {
		t.Errorf("enforcement perturbed the admission workload:\n%s\nvs\n%s",
			renderChurn(plain), renderChurn(enforced))
	}
}

// TestEnforceChurnValidation: an enforcement setting the dataplane
// refuses fails the run before its first arrival, with the service's
// typed rejection.
func TestEnforceChurnValidation(t *testing.T) {
	cfg := churnConfig(10, 1, "rr")
	cfg.Enforce = true
	cfg.EnforceAlpha = 1.5
	if _, err := Churn(cfg); place.ReasonOf(err) != place.ReasonInvalidRequest {
		t.Errorf("EnforceAlpha 1.5: err = %v, want an invalid_request rejection", err)
	}
}
