// Quickstart: describe an application as a TAG, obtain a bandwidth
// guarantee for it through the public guarantee API, and inspect what
// the guarantee costs the fabric — the minimal end-to-end tour of the
// service.
package main

import (
	"context"
	"fmt"
	"log"

	"cloudmirror/guarantee"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

func main() {
	// 1. Describe the application: a classic three-tier web service
	// (Fig. 2(a) of the paper). Guarantees are per-VM, in Mbps.
	g := tag.New("shop")
	web := g.AddTier("web", 8)
	logic := g.AddTier("logic", 12)
	db := g.AddTier("db", 4)
	inet := g.AddExternal("internet", 0)

	g.AddBidirectional(web, logic, 300, 200) // every web VM ↔ logic tier
	g.AddBidirectional(logic, db, 100, 300)  // logic ↔ database
	g.AddSelfLoop(db, 150)                   // db replication hose
	g.AddEdge(web, inet, 50, 0)              // responses to the internet
	g.AddEdge(inet, web, 0, 25)              // requests from the internet

	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant:", g)
	fmt.Printf("aggregate guaranteed bandwidth: %.0f Mbps; mean per-VM demand: %.0f Mbps\n\n",
		g.AggregateBandwidth(), g.PerVMDemand())

	// 2. Build the guarantee service: one front door for admit, resize,
	// and release, here a single CloudMirror-placed datacenter.
	svc, err := guarantee.New(topology.MediumSpec())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Request the guarantee, with 50% worst-case survivability.
	ctx := context.Background()
	grant, err := svc.Admit(ctx, guarantee.Request{
		Graph: g,
		HA:    guarantee.HASpec{RWCS: 0.5},
	})
	if err != nil {
		// Every rejection carries a machine-readable reason code.
		log.Fatalf("rejected (%s): %v", guarantee.ReasonOf(err), err)
	}
	res := grant.Reservation()
	fmt.Printf("placed %d VMs on %d servers\n", res.Placement().VMs(), len(res.Placement()))

	// 4. Inspect what the guarantee costs the fabric.
	tree := svc.Topology(0)
	for l := 0; l < tree.Height(); l++ {
		fmt.Printf("reserved at %-7s level: %8.1f Mbps\n", tree.LevelName(l), tree.LevelReserved(l))
	}
	fmt.Printf("tenant total reservation: %.1f Mbps across all uplinks\n", res.TotalReserved())

	// 5. Elastic scaling: double the web tier in place. The per-VM
	// guarantees in the TAG are untouched — only the tier size changes
	// — and only the delta VMs are placed.
	bigger, err := g.WithTierSize(web, 16)
	if err != nil {
		log.Fatal(err)
	}
	if err := grant.Resize(ctx, bigger); err != nil {
		log.Fatalf("resize rejected (%s): %v", guarantee.ReasonOf(err), err)
	}
	fmt.Printf("\nafter doubling the web tier: %d VMs, %.1f Mbps reserved\n",
		grant.Reservation().Placement().VMs(), grant.Reservation().TotalReserved())

	// 6. Tenant departure returns every resource.
	grant.Release()
	fmt.Printf("\nafter release: %s, server-level reserved = %.1f Mbps\n",
		tree, tree.LevelReserved(0))
}
