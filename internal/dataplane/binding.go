package dataplane

import (
	"fmt"
	"slices"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Binding maps one tenant's deployed VMs onto servers: the
// reservation→netem bridge. VM IDs follow enforce.NewDeployment's
// tier-major order (tier 0 gets IDs 0..N0-1, tier 1 the next N1, …);
// within a tier, VMs are assigned to the placement's servers in
// ascending server-ID order, so the binding is a deterministic function
// of (graph, placement).
type Binding struct {
	dep    *enforce.Deployment
	server []topology.NodeID
}

// Bind derives the binding from the tenant's TAG and its committed
// placement. It fails if the placement's per-tier totals do not match
// the graph (a control-plane invariant violation, surfaced rather than
// silently mis-bound).
func Bind(g *tag.Graph, pl place.Placement) (*Binding, error) {
	dep := enforce.NewDeployment(g)
	b := &Binding{dep: dep, server: make([]topology.NodeID, dep.VMs())}
	servers := make([]topology.NodeID, 0, len(pl))
	for s := range pl {
		servers = append(servers, s)
	}
	slices.Sort(servers)
	for t := 0; t < g.Tiers(); t++ {
		if g.Tier(t).External {
			continue
		}
		ids := dep.TierVMs(t)
		i := 0
		for _, s := range servers {
			counts := pl[s]
			if t >= len(counts) {
				continue
			}
			for k := 0; k < counts[t]; k++ {
				if i >= len(ids) {
					return nil, fmt.Errorf("%w: placement has more tier-%d VMs than graph %q declares (%d)",
						netem.ErrBadInput, t, g.Name, len(ids))
				}
				b.server[ids[i]] = s
				i++
			}
		}
		if i != len(ids) {
			return nil, fmt.Errorf("%w: placement covers %d of %d tier-%d VMs of graph %q",
				netem.ErrBadInput, i, len(ids), t, g.Name)
		}
	}
	return b, nil
}

// Deployment returns the VM→tier mapping enforcement partitions over.
func (b *Binding) Deployment() *enforce.Deployment { return b.dep }

// VMs returns the number of bound VMs.
func (b *Binding) VMs() int { return len(b.server) }

// Server returns the server hosting VM vm.
func (b *Binding) Server(vm int) topology.NodeID { return b.server[vm] }
