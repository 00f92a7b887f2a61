// Storm reproduces the Fig. 3 analysis end to end through the public
// guarantee API: a Storm-style streaming pipeline is admitted by the
// CloudMirror-backed service, which pairs the communicating components
// under common subtrees, and the cross-branch reservation is compared
// against what the VOC abstraction would need.
package main

import (
	"context"
	"fmt"
	"log"

	"cloudmirror/guarantee"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/voc"
)

func main() {
	// Fig. 3(a): Spout1 feeds Bolt1 and Bolt2; Bolt2 feeds Bolt3. Each
	// component has S VMs; each VM sends B Mbps per outgoing edge.
	const s, b = 10, 100.0
	g := tag.New("storm")
	spout1 := g.AddTier("spout1", s)
	bolt1 := g.AddTier("bolt1", s)
	bolt2 := g.AddTier("bolt2", s)
	bolt3 := g.AddTier("bolt3", s)
	g.AddEdge(spout1, bolt1, b, b)
	g.AddEdge(spout1, bolt2, b, b)
	g.AddEdge(bolt2, bolt3, b, b)

	// Two branches (ToRs), each with room for two components.
	spec := topology.Spec{
		SlotsPerServer: s,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 2, Uplink: 10_000},
			{Name: "tor", Fanout: 2, Uplink: 10_000},
		},
	}
	svc, err := guarantee.New(spec)
	if err != nil {
		log.Fatal(err)
	}

	grant, err := svc.Admit(context.Background(), guarantee.Request{Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	res := grant.Reservation()
	tree := svc.Topology(0)
	fmt.Println("CloudMirror placement (component → branch):")
	for _, tor := range tree.NodesAtLevel(1) {
		fmt.Printf("  branch %d:", tor)
		counts := make([]int, g.Tiers())
		for server, c := range res.Placement() {
			if tree.Ancestor(server, 1) == tor {
				for t, k := range c {
					counts[t] += k
				}
			}
		}
		for t, k := range counts {
			if k > 0 {
				fmt.Printf(" %s×%d", g.Tier(t).Name, k)
			}
		}
		out, in := res.ReservedOn(tor)
		fmt.Printf("   (uplink reserved: %.0f out / %.0f in Mbps)\n", out, in)
	}

	// The paper's point: the actual cross-branch requirement is S·B
	// (only Spout1→Bolt2 crosses); a VOC model would reserve twice it.
	counts := place.AggregateCounts(tree, g.Tiers(), res.Placement())
	branch := tree.NodesAtLevel(1)[0]
	tagOut, _ := g.Cut(counts[branch])
	vocOut, _ := voc.FromTAG(g).Cut(counts[branch])
	fmt.Printf("\ncross-branch reservation:  TAG %.0f Mbps (= S·B), VOC would need %.0f Mbps (%.1f×)\n",
		tagOut, vocOut, vocOut/tagOut)
	grant.Release()
}
