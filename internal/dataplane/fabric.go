// Package dataplane is the enforcement plane: it turns Grant lifecycle
// events (place.Event) into live per-flow rate enforcement over a
// fluid-network model of the datacenter fabric.
//
// The control plane — admission through place/cluster behind the public
// guarantee API — decides which tenants hold which reservations; this
// package is the runtime half the paper's §5.2 describes: guarantee
// partitioning (GP) divides each tenant's TAG hose guarantees over its
// currently active VM pairs, rate allocation (RA) hands every pair its
// guarantee and redistributes spare capacity in proportion to
// guarantees (work conservation), and a per-shard Driver keeps that
// loop running as tenants are admitted, resized, and released — each
// event patches the driver's state incrementally, never rebuilding the
// fabric.
package dataplane

import (
	"fmt"

	"cloudmirror/internal/netem"
	"cloudmirror/internal/topology"
)

// Fabric is the fluid-network image of one shard's datacenter tree:
// every uplink of the tree becomes two netem links — one per direction,
// "up" toward the root and "down" from it — with the tree's per-
// direction capacity. It is built once per driver; lifecycle events
// never touch it.
type Fabric struct {
	net  *netem.Network
	tree *topology.Tree
	// up[n] and down[n] are node n's uplink in each direction; -1 for
	// the root, which has no uplink.
	up, down []netem.LinkID
}

// NewFabric images the tree. The tree's capacities are read once; the
// fabric does not observe later reservations (enforcement works with
// full link capacities — admission control already guarantees that all
// reservations fit within them).
func NewFabric(tree *topology.Tree) (*Fabric, error) {
	f := &Fabric{
		net:  netem.New(),
		tree: tree,
		up:   make([]netem.LinkID, tree.NumNodes()),
		down: make([]netem.LinkID, tree.NumNodes()),
	}
	for n := 0; n < tree.NumNodes(); n++ {
		id := topology.NodeID(n)
		if id == tree.Root() {
			f.up[n], f.down[n] = -1, -1
			continue
		}
		name := fmt.Sprintf("%s%d", tree.LevelName(tree.Level(id)), n)
		var err error
		if f.up[n], err = f.net.AddLink(name+"/up", tree.UplinkCap(id)); err != nil {
			return nil, err
		}
		if f.down[n], err = f.net.AddLink(name+"/down", tree.UplinkCap(id)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Network exposes the underlying fluid network (for tests and stats).
func (f *Fabric) Network() *netem.Network { return f.net }

// Path returns the link sequence a flow from server src to server dst
// traverses: src's uplinks up to the lowest common ancestor, then the
// downlinks back to dst. Colocated pairs (src == dst) return nil —
// intra-server traffic never crosses the fabric.
func (f *Fabric) Path(src, dst topology.NodeID) []netem.LinkID {
	if src == dst {
		return nil
	}
	// Servers all sit at level 0, so walking both sides up one parent
	// at a time reaches the LCA simultaneously.
	hops := 0
	for a, b := src, dst; a != b; a, b = f.tree.Parent(a), f.tree.Parent(b) {
		hops++
	}
	path := make([]netem.LinkID, 2*hops)
	i := 0
	for a, b := src, dst; a != b; a, b = f.tree.Parent(a), f.tree.Parent(b) {
		path[i], path[len(path)-1-i] = f.up[a], f.down[b]
		i++
	}
	return path
}
