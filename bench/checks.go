package main

import (
	"fmt"
	"math"

	"cloudmirror/internal/topology"
)

// The five correctness checks every run makes. Each is a function of
// plain values so the tests can feed it a violated input.

// checkTranscript (check 1) compares the decision transcript of a run
// with the reference replay of the same stream.
func checkTranscript(what, got, want string) error {
	if got != want {
		return fmt.Errorf("check 1: %s transcript %.12s differs from reference %.12s", what, got, want)
	}
	return nil
}

// serverTally is the controller's own account of a run: /v1/stats or
// Service.Stats() plus the summed shard loads.
type serverTally struct {
	admitted, rejected, failed, released, resized int64
	slotsUsed                                     int
	reservedMbps                                  float64
	tenants                                       int
}

// checkTally (check 2) compares the caller's counts with the
// controller's; drained also requires an empty ledger.
func checkTally(c tally, s serverTally, drained bool) error {
	if c.admitted != s.admitted || c.rejected != s.rejected || c.released != s.released || c.resized != s.resized {
		return fmt.Errorf("check 2: caller counted admitted/rejected/released/resized %d/%d/%d/%d, controller %d/%d/%d/%d",
			c.admitted, c.rejected, c.released, c.resized, s.admitted, s.rejected, s.released, s.resized)
	}
	if live := int(c.admitted - c.released); live != s.tenants {
		return fmt.Errorf("check 2: caller holds %d live grants, controller %d", live, s.tenants)
	}
	if drained && (s.slotsUsed != 0 || math.Abs(s.reservedMbps) > 1e-6) {
		return fmt.Errorf("check 2: after the drain the ledger still holds %d slots and %g Mbps", s.slotsUsed, s.reservedMbps)
	}
	return nil
}

// ledger is the read-only view of a datacenter tree check 3 needs;
// *topology.Tree provides it, and the tests a broken one.
type ledger interface {
	NumNodes() int
	UplinkCap(topology.NodeID) float64
	UplinkReserved(topology.NodeID) (out, in float64)
	SlotsFree(topology.NodeID) int
}

// checkLedger (check 3) verifies the paper's capacity invariant on
// every node: reservations within the uplink's capacity in both
// directions and no negative free slots.
func checkLedger(tree ledger) error {
	for n := 0; n < tree.NumNodes(); n++ {
		id := topology.NodeID(n)
		out, in := tree.UplinkReserved(id)
		if c := tree.UplinkCap(id) + 1e-6; out > c || in > c {
			return fmt.Errorf("check 3: node %d reserves %g out / %g in of %g Mbps", n, out, in, tree.UplinkCap(id))
		}
		if tree.SlotsFree(id) < 0 {
			return fmt.Errorf("check 3: node %d has %d free slots", n, tree.SlotsFree(id))
		}
	}
	return nil
}

// checkPeriod (check 4) verifies one control period: every pair got
// min(demand, guarantee), and lifecycle events patched the dataplane
// without ever rebuilding its fabric.
func checkPeriod(period int, minRatio float64, fabricBuilds int64) error {
	if !(minRatio >= 1-1e-6) {
		return fmt.Errorf("check 4: period %d worst pair achieved %g of min(demand, guarantee)", period, minRatio)
	}
	if fabricBuilds != 1 {
		return fmt.Errorf("check 4: period %d saw %d fabric builds, want 1", period, fabricBuilds)
	}
	return nil
}

// grantState is what the API acknowledged about a live grant.
type grantState struct {
	vms, servers int
	reserved     float64
}

// checkRecovered (check 5) compares a restarted daemon with what the
// crashed one had acknowledged: live maps grant ids to the state the
// recovered daemon returned (found false for a 404), released lists
// the ids that must now be unknown.
func checkRecovered(want map[string]grantState, got func(id string) (grantState, bool, error), released []string, before, after serverTally) error {
	for id, w := range want {
		g, found, err := got(id)
		if err != nil {
			return fmt.Errorf("check 5: reading grant %s after recovery: %w", id, err)
		}
		if !found {
			return fmt.Errorf("check 5: acknowledged grant %s is gone after recovery", id)
		}
		if g.vms != w.vms || g.servers != w.servers || math.Float64bits(g.reserved) != math.Float64bits(w.reserved) {
			return fmt.Errorf("check 5: grant %s recovered as %+v, acknowledged %+v", id, g, w)
		}
	}
	for _, id := range released {
		if _, found, err := got(id); err != nil {
			return fmt.Errorf("check 5: reading released grant %s after recovery: %w", id, err)
		} else if found {
			return fmt.Errorf("check 5: released grant %s is back after recovery", id)
		}
	}
	if before != after {
		return fmt.Errorf("check 5: counters %+v before the crash, %+v after recovery", before, after)
	}
	return nil
}
