// Threetier walks through §2.2 of the paper with runnable numbers: why
// the hose and VOC abstractions over-reserve for a three-tier web
// application (Fig. 2), and why the hose model cannot protect the
// web→logic guarantee under congestion (Fig. 4) while the TAG can.
package main

import (
	"context"
	"fmt"
	"log"

	"cloudmirror/guarantee"
	"cloudmirror/internal/hose"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/voc"
)

func main() {
	// Fig. 2(a): three tiers of 10 VMs; B1 = 500, B2 = 100, B3 = 50.
	const n, b1, b2, b3 = 10, 500.0, 100.0, 50.0
	g := tag.New("three-tier")
	web := g.AddTier("web", n)
	logic := g.AddTier("logic", n)
	db := g.AddTier("db", n)
	g.AddBidirectional(web, logic, b1, b1)
	g.AddBidirectional(logic, db, b2, b2)
	g.AddSelfLoop(db, b3)

	// Fig. 2(c): each tier deployed on its own subtree. What must L3
	// (the db subtree's uplink) reserve under each abstraction?
	inside := []int{0, 0, n}
	tagOut, _ := g.Cut(inside)
	hoseOut, _ := hose.FromTAG(g).Cut(inside)
	vocOut, _ := voc.FromTAG(g).Cut(inside)
	fmt.Println("Fig. 2: bandwidth to reserve on L3 (db subtree uplink), outgoing direction:")
	fmt.Printf("  TAG : %6.0f Mbps  (the actual inter-tier requirement N·B2)\n", tagOut)
	fmt.Printf("  VOC : %6.0f Mbps\n", vocOut)
	fmt.Printf("  hose: %6.0f Mbps  (wastes N·B3 = %.0f on intra-tier traffic that never crosses L3)\n",
		hoseOut, hoseOut-tagOut)

	// Fig. 4: one logic VM behind a 600 Mbps bottleneck, receiving from
	// one web VM (guarantee 500) and one db VM (guarantee 100), both
	// backlogged. The tenant is admitted through the public guarantee
	// API onto a 1-slot-per-server datacenter, so the logic VM's 600
	// Mbps downlink is the bottleneck, and each partitioning scheme
	// runs as the service's own enforcement plane.
	fmt.Println("\nFig. 4: enforcement under congestion (600 Mbps bottleneck to a logic VM):")
	sg := tag.New("fig4")
	w := sg.AddTier("web", 1)
	l := sg.AddTier("logic", 1)
	d := sg.AddTier("db", 1)
	sg.AddEdge(w, l, 500, 500)
	sg.AddEdge(d, l, 100, 100)

	for _, m := range []struct {
		name        string
		partitioner string
	}{
		{"hose", "hose"},
		{"TAG ", "tag"},
	} {
		svc, err := guarantee.New(topology.Spec{
			SlotsPerServer: 1,
			Levels:         []topology.LevelSpec{{Name: "server", Fanout: 4, Uplink: 600}},
		},
			guarantee.WithAlgorithm("cm"),
			guarantee.WithEnforcement(guarantee.EnforcementConfig{Partitioner: m.partitioner}),
		)
		if err != nil {
			log.Fatal(err)
		}
		grant, err := svc.Admit(context.Background(), guarantee.Request{Graph: sg})
		if err != nil {
			log.Fatal(err)
		}
		enf := svc.Enforcement()
		// VM IDs are tier-major: 0 = web, 1 = logic, 2 = db.
		if err := enf.SetDemand(grant, []guarantee.Demand{
			{Src: 0, Dst: 1, Mbps: guarantee.Greedy},
			{Src: 2, Dst: 1, Mbps: guarantee.Greedy},
		}); err != nil {
			log.Fatal(err)
		}
		if _, err := enf.Converge(0, 0); err != nil {
			log.Fatal(err)
		}
		flows, err := enf.Pairs(grant)
		if err != nil {
			log.Fatal(err)
		}
		status := "✓ 500 Mbps guarantee held"
		if flows[0].Rate < 500 {
			status = "✗ 500 Mbps guarantee broken"
		}
		fmt.Printf("  %s: web→logic %5.1f Mbps, db→logic %5.1f Mbps   %s\n",
			m.name, flows[0].Rate, flows[1].Rate, status)
		grant.Release()
	}
}
