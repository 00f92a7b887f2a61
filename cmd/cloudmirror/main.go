// Command cloudmirror places a tenant described by a TAG (JSON) onto an
// empty simulated datacenter under CloudMirror or one of the variants
// and baselines the paper compares (internal/experiments), and reports
// the placement and the bandwidth it reserves at each network level.
//
// Usage:
//
//	cloudmirror -tag tenant.json [-alg cm|cm-oppha|cm-coloc|cm-balance|ovoc|ovoc-aware|secondnet]
//	            [-oppha] [-servers 512|2048] [-rwcs R] [-dot]
//
// The TAG wire format (see internal/tag) names tiers and edges:
//
//	{
//	  "name": "shop",
//	  "tiers": [{"name":"web","n":10}, {"name":"db","n":4}],
//	  "edges": [{"from":"web","to":"db","s":100,"r":250},
//	            {"from":"db","to":"db","sr":50}]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cloudmirror/internal/experiments"
	"cloudmirror/internal/ha"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

func main() {
	tagPath := flag.String("tag", "", "path to the tenant TAG (JSON)")
	alg := flag.String("alg", "cm", "placement algorithm: "+strings.Join(experiments.Algorithms(), ", "))
	servers := flag.Int("servers", 512, "datacenter size: 512 or 2048 servers")
	rwcs := flag.Float64("rwcs", 0, "required worst-case survivability in [0,1)")
	oppHA := flag.Bool("oppha", false, "opportunistic anti-affinity (cm only)")
	dot := flag.Bool("dot", false, "print the TAG in Graphviz DOT form and exit")
	flag.Parse()

	if *tagPath == "" {
		fmt.Fprintln(os.Stderr, "cloudmirror: -tag is required")
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*tagPath)
	if err != nil {
		fatal(err)
	}
	var g tag.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *tagPath, err))
	}
	if *dot {
		if err := g.WriteDOT(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	var spec topology.Spec
	switch *servers {
	case 512:
		spec = topology.MediumSpec()
	case 2048:
		spec = topology.PaperSpec()
	default:
		fatal(fmt.Errorf("unsupported -servers %d (use 512 or 2048)", *servers))
	}

	name := *alg
	if name == "cm" && *oppHA {
		name = "cm-oppha"
	}
	algorithm, err := experiments.AlgorithmByName(name)
	if err != nil {
		fatal(err)
	}
	tree, res, err := experiments.PlaceOne(spec, algorithm, place.Request{
		Graph: &g,
		HA:    place.HASpec{RWCS: *rwcs},
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("placed %q: %d VMs via %s on %s\n", g.Name, g.VMs(), name, tree)
	pl := res.Placement()
	nodes := make([]topology.NodeID, 0, len(pl))
	for n := range pl {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, server := range nodes {
		fmt.Printf("  server %4d:", server)
		for t, k := range pl[server] {
			if k > 0 {
				fmt.Printf(" %s×%d", g.Tier(t).Name, k)
			}
		}
		fmt.Println()
	}
	for l := 0; l < tree.Height(); l++ {
		fmt.Printf("reserved at %-7s level: %8.1f Mbps\n", tree.LevelName(l), tree.LevelReserved(l))
	}
	wcs := ha.WCS(tree, pl, g.Tiers(), 0)
	for t := 0; t < g.Tiers(); t++ {
		if wcs[t] >= 0 {
			fmt.Printf("worst-case survivability %-8s: %5.1f%%\n", g.Tier(t).Name, 100*wcs[t])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cloudmirror:", err)
	os.Exit(1)
}
