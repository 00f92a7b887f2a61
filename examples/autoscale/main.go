// Autoscale demonstrates the §3/§6 flexibility argument through the
// public guarantee API: per-VM TAG guarantees survive tier re-sizing
// ("auto-scaling") unchanged, and Grant.Resize grows the deployment *in
// place* — only the delta VMs are placed — while a pipe model would
// recompute every pair guarantee. A multi-tier jump is one Resize call:
// the service decomposes it into single-tier steps and commits them as
// one atomic ledger transition.
package main

import (
	"context"
	"fmt"
	"log"

	"cloudmirror/guarantee"
	"cloudmirror/internal/pipe"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// buildTenant builds the tenant with the given tier sizes. The per-VM
// guarantees are fixed constants — scaling only changes the VM counts,
// which is the paper's point: "per-VM bandwidth guarantees Se and Re
// typically do not need to change when tier sizes are changed".
func buildTenant(webVMs, logicVMs int) *tag.Graph {
	g := tag.New("autoscaled")
	web := g.AddTier("web", webVMs)
	logic := g.AddTier("logic", logicVMs)
	g.AddBidirectional(web, logic, 100, 400)
	return g
}

func main() {
	svc, err := guarantee.New(topology.MediumSpec())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Initial deployment: 48+12 VMs, then Netflix-style scale-up
	// toward 288+72 (the AWS benchmark the paper cites grew 48 → 288
	// with stable per-VM bandwidth).
	cur := buildTenant(48, 12)
	grant, err := svc.Admit(ctx, guarantee.Request{Graph: cur})
	if err != nil {
		log.Fatal(err)
	}
	report := func(g *tag.Graph) {
		e := g.Edges()[0]
		fmt.Printf("%3d VMs: per-VM guarantee <S=%g,R=%g> (unchanged), ", g.VMs(), e.S, e.R)
		fmt.Printf("reserved %7.0f Mbps; a pipe model would need %5d pair guarantees recomputed\n",
			grant.Reservation().TotalReserved(), pipe.FromTAG(g).Pipes())
	}
	report(cur)

	for _, size := range []struct{ web, logic int }{{96, 24}, {288, 72}} {
		// Both tiers grow in ONE call: Resize steps tier by tier
		// internally and the whole transition is atomic.
		next := buildTenant(size.web, size.logic)
		if err := grant.Resize(ctx, next); err != nil {
			log.Fatalf("resize rejected (%s): %v", guarantee.ReasonOf(err), err)
		}
		cur = next
		report(cur)
	}
	grant.Release()

	fmt.Println("\nThe TAG spec the tenant wrote never changed across scaling events;")
	fmt.Println("only the delta VMs were placed and the reservations re-synchronized.")
}
