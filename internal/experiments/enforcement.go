package experiments

import (
	"fmt"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/tag"
)

// This file regenerates the enforcement experiments: Fig. 13 (TAG
// guarantees under ElasticSwitch) and the Fig. 4 congestion scenario.

// Fig13 regenerates Fig. 13(b): steady-state throughput of the X→Z trunk
// flow versus the aggregate intra-tier traffic into Z, as the number of
// intra-tier senders grows. B1 = B2 = Bin2 = 450 Mbps, 1 Gbps bottleneck,
// 10% unreserved.
func Fig13(o Options) (*Table, error) {
	var rows [][]string
	for k := 0; k <= 5; k++ {
		x, c2, err := fig13Point(k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{fmt.Sprintf("%d", k), f1(x), f1(c2)})
	}
	return &Table{
		Name:   "fig13",
		Title:  "TAG guarantees using ElasticSwitch: throughput of VM Z's flows (Mbps)",
		Header: []string{"C2 senders", "X→Z", "C2→Z"},
		Rows:   rows,
		Notes:  "B1=B2=Bin2=450 Mbps, 1 Gbps bottleneck, 10% unreserved, work-conserving",
	}, nil
}

// fig13Point computes one x-axis point of Fig. 13(b).
func fig13Point(k int) (xRate, c2Rate float64, err error) {
	g := tag.New("fig13")
	c1 := g.AddTier("C1", 1)
	c2 := g.AddTier("C2", 1+max(k, 1))
	g.AddEdge(c1, c2, 450, 450)
	g.AddSelfLoop(c2, 450)
	dep := enforce.NewDeployment(g)

	n := netem.New()
	bottleneck, err := n.AddLink("to-Z", 1000)
	if err != nil {
		return 0, 0, err
	}
	pairs := []enforce.Pair{{Src: 0, Dst: 1, Demand: netem.Greedy}}
	for s := 0; s < k; s++ {
		pairs = append(pairs, enforce.Pair{Src: 2 + s, Dst: 1, Demand: netem.Greedy})
	}
	paths := make([][]netem.LinkID, len(pairs))
	for i := range paths {
		paths[i] = []netem.LinkID{bottleneck}
	}
	alloc, err := enforce.WorkConservingRates(n, pairs, paths, enforce.NewTAGPartitioner(dep))
	if err != nil {
		return 0, 0, err
	}
	xRate = alloc.Rates[0]
	for _, r := range alloc.Rates[1:] {
		c2Rate += r
	}
	return xRate, c2Rate, nil
}

// Fig13Dynamic extends Fig. 13 with the control loop: four intra-tier
// senders burst in at period 5 while X is established, and the table
// shows X→Z per control period — the guarantee holds through the
// transient while the newcomers converge to their partitioned shares.
func Fig13Dynamic(o Options) (*Table, error) {
	g := tag.New("fig13")
	c1 := g.AddTier("C1", 1)
	c2 := g.AddTier("C2", 6) // Z + 5 potential senders
	g.AddEdge(c1, c2, 450, 450)
	g.AddSelfLoop(c2, 450)
	dep := enforce.NewDeployment(g)

	n := netem.New()
	link, err := n.AddLink("to-Z", 1000)
	if err != nil {
		return nil, err
	}
	mkPairs := func(k int) ([]enforce.Pair, [][]netem.LinkID) {
		pairs := []enforce.Pair{{Src: 0, Dst: 1, Demand: netem.Greedy}}
		for s := 0; s < k; s++ {
			pairs = append(pairs, enforce.Pair{Src: 2 + s, Dst: 1, Demand: netem.Greedy})
		}
		paths := make([][]netem.LinkID, len(pairs))
		for i := range paths {
			paths[i] = []netem.LinkID{link}
		}
		return pairs, paths
	}

	ctrl := enforce.NewController(n, enforce.NewTAGPartitioner(dep), 0.3)
	var rows [][]string
	for period := 0; period < 15; period++ {
		k := 1
		if period >= 5 {
			k = 5
		}
		pairs, paths := mkPairs(k)
		rates, err := ctrl.Step(pairs, paths)
		if err != nil {
			return nil, err
		}
		var c2Rate float64
		for _, r := range rates[1:] {
			c2Rate += r
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", period), fmt.Sprintf("%d", k), f1(rates[0]), f1(c2Rate),
		})
	}
	return &Table{
		Name:   "fig13dyn",
		Title:  "Dynamic enforcement: X→Z through a burst of intra-tier senders (period 5)",
		Header: []string{"Period", "C2 senders", "X→Z", "C2→Z"},
		Rows:   rows,
		Notes:  "control loop α=0.3; X's 450 Mbps trunk guarantee must hold in every period",
	}, nil
}

// Fig4 regenerates the Fig. 4 scenario end to end: under congestion at
// the business-logic VM, hose-model enforcement splits the 600 Mbps hose
// TCP-fairly (300:300) and breaks the web tier's 500 Mbps guarantee,
// while TAG enforcement holds it.
func Fig4(o Options) (*Table, error) {
	dep, n, pairs, paths, err := fig4Scenario()
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, m := range []struct {
		name string
		gp   enforce.Partitioner
	}{
		{"hose", hosePartitioner{dep}},
		{"TAG", enforce.NewTAGPartitioner(dep)},
	} {
		alloc, err := enforce.WorkConservingRates(n, pairs, paths, m.gp)
		if err != nil {
			return nil, err
		}
		verdict := "guarantee held"
		if alloc.Rates[0] < 500-1e-9 {
			verdict = "guarantee BROKEN"
		}
		rows = append(rows, []string{m.name, f1(alloc.Rates[0]), f1(alloc.Rates[1]), verdict})
	}
	return &Table{
		Name:   "fig4",
		Title:  "Hose vs TAG under congestion: web→logic needs 500 Mbps on a 600 Mbps bottleneck",
		Header: []string{"Model", "web→logic", "db→logic", "web guarantee (500)"},
		Rows:   rows,
		Notes:  "B1=500, B2=100; both senders backlogged",
	}, nil
}

// fig4Scenario builds Fig. 4's congestion scenario: one web VM (ID 0)
// and one db VM (ID 2) sending, backlogged, to one logic VM (ID 1)
// behind a 600 Mbps link, with web→logic guaranteed 500 Mbps and
// db→logic 100.
func fig4Scenario() (dep *enforce.Deployment, n *netem.Network, pairs []enforce.Pair, paths [][]netem.LinkID, err error) {
	g := tag.New("fig4")
	web := g.AddTier("web", 1)
	logic := g.AddTier("logic", 1)
	db := g.AddTier("db", 1)
	g.AddEdge(web, logic, 500, 500)
	g.AddEdge(db, logic, 100, 100)
	dep = enforce.NewDeployment(g)

	n = netem.New()
	l, err := n.AddLink("to-logic", 600)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pairs = []enforce.Pair{
		{Src: 0, Dst: 1, Demand: netem.Greedy},
		{Src: 2, Dst: 1, Demand: netem.Greedy},
	}
	return dep, n, pairs, [][]netem.LinkID{{l}, {l}}, nil
}

// hosePartitioner is Fig. 4's baseline GP: guarantees derived from the
// generalized hose model (each VM's single aggregated guarantee,
// tag.Graph.VMProfile), so all active sources of a destination share
// one receive guarantee regardless of which application hose they
// belong to. For pair (s,d):
//
//	g(s,d) = min( Bsnd(s) / activeDsts(s), Brcv(d) / activeSrcs(d) )
//
// The service never runs it: it is the failure mode the TAG partitioner
// fixes.
type hosePartitioner struct{ dep *enforce.Deployment }

// AppendPairGuarantees implements enforce.Partitioner.
func (p hosePartitioner) AppendPairGuarantees(dst []float64, pairs []enforce.Pair) []float64 {
	dsts, srcs := make(map[int]int), make(map[int]int)
	for _, pr := range pairs {
		dsts[pr.Src]++
		srcs[pr.Dst]++
	}
	g := p.dep.Graph()
	for _, pr := range pairs {
		snd, _ := g.VMProfile(p.dep.TierOf(pr.Src))
		_, rcv := g.VMProfile(p.dep.TierOf(pr.Dst))
		dst = append(dst, min(snd/float64(dsts[pr.Src]), rcv/float64(srcs[pr.Dst])))
	}
	return dst
}
