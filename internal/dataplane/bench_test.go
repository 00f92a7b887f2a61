package dataplane

import (
	"math/rand"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// BenchmarkStepStorm times a full-solve control period — every tenant
// redeclares its offered loads, then one Step — on a 512-tenant fleet
// over the MediumSpec fabric, in the two regimes the repository's
// benchmark does not separate. Tenant i is a 3+3-VM two-tier TAG whose
// tiers sit under neighbouring ToRs, sixteen tenants per ToR pair, so
// every flow crosses a ToR uplink and the guarantees fill 80% of it;
// each pair offers 0.25, 0.5, 1 or 2 times its share of the hose.
//
//   - slack: those loads as they are. ToR uplinks carry ≈75% of their
//     capacity, no link is contended, every tenant is its own component
//     and every solve takes the solver's "every cap fits" return.
//   - contended: the loads scaled by 4/3, which puts the mean ToR uplink
//     at capacity: each period about half of them are contended and the
//     set changes, so periods rebuild the structure, components span a
//     rack's tenants, and their solves run the event loop.
//
// components/op and solved/op report the mean structure a period saw.
func BenchmarkStepStorm(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"slack", 1}, {"contended", 4.0 / 3}} {
		b.Run(c.name, func(b *testing.B) {
			tree := topology.New(topology.MediumSpec())
			d, err := New(tree, Config{})
			if err != nil {
				b.Fatal(err)
			}
			const tenants, perTor, tierVMs, hose = 512, 16, 3, 2000.0 / 3
			servers := tree.Servers()
			tors := len(servers) / perTor
			g := tag.New("storm")
			g.AddEdge(g.AddTier("a", tierVMs), g.AddTier("b", tierVMs), hose, hose)
			var ds []Demand
			for s := 0; s < tierVMs; s++ {
				for t := tierVMs; t < 2*tierVMs; t++ {
					ds = append(ds, Demand{Src: s, Dst: t})
				}
			}
			for i := 0; i < tenants; i++ {
				pl := make(place.Placement)
				tor := i / perTor
				for v := 0; v < tierVMs; v++ {
					pl.Add(servers[tor*perTor+(i+v)%perTor], 2, 0, 1)
					pl.Add(servers[(tor+1)%tors*perTor+(i+v)%perTor], 2, 1, 1)
				}
				d.Publish(admitEvent(int64(i+1), g, pl))
			}
			rng := rand.New(rand.NewSource(1))
			factors := [...]float64{0.25, 0.5, 1, 2}
			comps, solved := 0, 0
			period := func() {
				for key := int64(1); key <= tenants; key++ {
					for i := range ds {
						ds[i].Mbps = factors[rng.Intn(len(factors))] * hose / tierVMs * c.scale
					}
					if err := d.SetDemand(key, ds); err != nil {
						b.Fatal(err)
					}
				}
				st, err := d.Step()
				if err != nil {
					b.Fatal(err)
				}
				if st.MinRatio < 1-1e-9 {
					b.Fatalf("a pair achieves %v of its demand-bounded guarantee", st.MinRatio)
				}
				comps += st.Components
				solved += st.Solved
			}
			for i := 0; i < 3; i++ {
				period() // size the scratch
			}
			comps, solved = 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				period()
			}
			b.ReportMetric(float64(comps)/float64(b.N), "components/op")
			b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
		})
	}
}
