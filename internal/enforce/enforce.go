// Package enforce implements runtime bandwidth-guarantee enforcement in
// the style of ElasticSwitch (Popa et al., SIGCOMM 2013), plus the small
// patch (§5.2 of the CloudMirror paper) that makes it enforce TAG models:
// since a TAG is a composition of directional hoses (virtual trunks) and
// per-tier hoses (self-loops), the only conceptual change is identifying
// which hose a source-destination VM pair belongs to.
//
// Enforcement has two parts, mirroring ElasticSwitch:
//
//   - Guarantee partitioning (GP) divides per-VM hose guarantees into
//     per-VM-pair guarantees based on the currently active communication
//     pattern.
//   - Rate allocation (RA) is work-conserving: flows first receive their
//     pair guarantee, then compete for spare capacity in proportion to
//     their guarantees (the TCP-like weighted sharing the paper assumes).
package enforce

import (
	"errors"

	"cloudmirror/internal/tag"
)

// ErrInvariant marks a violated control-plane invariant detected at
// enforcement time: the inputs were individually well-formed, but
// together contradict a guarantee an upstream layer (admission,
// placement) was supposed to have established. Callers match it with
// errors.Is to distinguish "our bookkeeping is corrupt" from bad input
// (netem.ErrBadInput).
var ErrInvariant = errors.New("enforce: control-plane invariant violated")

// Deployment maps concrete VM IDs (0..N-1) onto the tiers of a TAG, so
// the enforcer can answer "which hose does the pair (s,d) belong to?".
type Deployment struct {
	g      *tag.Graph
	tierOf []int
	vmsOf  [][]int
}

// NewDeployment assigns VM IDs to tiers in tier order: tier 0 gets IDs
// 0..N0-1, tier 1 the next N1, and so on. External tiers get no VMs.
func NewDeployment(g *tag.Graph) *Deployment {
	d := &Deployment{g: g, vmsOf: make([][]int, g.Tiers())}
	id := 0
	for t := 0; t < g.Tiers(); t++ {
		if g.Tier(t).External {
			continue
		}
		for i := 0; i < g.TierSize(t); i++ {
			d.tierOf = append(d.tierOf, t)
			d.vmsOf[t] = append(d.vmsOf[t], id)
			id++
		}
	}
	return d
}

// Graph returns the deployment's TAG.
func (d *Deployment) Graph() *tag.Graph { return d.g }

// VMs returns the number of deployed VMs.
func (d *Deployment) VMs() int { return len(d.tierOf) }

// TierOf returns the tier of a VM.
func (d *Deployment) TierOf(vm int) int { return d.tierOf[vm] }

// TierVMs returns the VM IDs of a tier. The slice must not be modified.
func (d *Deployment) TierVMs(t int) []int { return d.vmsOf[t] }

// PairGuarantee is the TAG patch: the per-VM guarantees governing the
// ordered pair (src, dst). For VMs in different tiers it returns the
// virtual-trunk guarantees <S_snd, R_rcv> summed over parallel edges; for
// VMs of the same tier it returns the self-loop hose guarantee. ok is
// false when the TAG grants the pair nothing.
func (d *Deployment) PairGuarantee(src, dst int) (snd, rcv float64, ok bool) {
	ts, td := d.tierOf[src], d.tierOf[dst]
	for _, e := range d.g.Edges() {
		if e.From == ts && e.To == td {
			snd += e.S
			rcv += e.R
			ok = true
		}
	}
	return snd, rcv, ok
}

// Pair is an active source→destination VM flow.
type Pair struct {
	Src, Dst int
	// Demand is the offered load in Mbps (netem.Greedy for backlogged).
	Demand float64
}

// Partitioner computes per-pair bandwidth guarantees from the active
// communication pattern (the GP half of ElasticSwitch). The pattern is
// which pairs are active, not how much they offer: an implementation is
// a pure function of its deployment and the ordered (Src, Dst) sequence
// and must not read Pair.Demand. Callers rely on it — the dataplane
// partitions once per pair set and keeps the result while offered loads
// move (TestPartitionersIgnoreDemand). The service enforces with
// TAGPartitioner; the experiments' Fig. 4 hose baseline is the other
// implementation.
type Partitioner interface {
	// AppendPairGuarantees appends one guarantee per pair, in order, to
	// dst and returns the extended slice. An implementation may reuse
	// internal scratch across calls, so it is not safe for concurrent
	// use.
	AppendPairGuarantees(dst []float64, pairs []Pair) []float64
}

// TAGPartitioner partitions guarantees per TAG hose: a VM's sending
// guarantee on a trunk is divided among its active destinations within
// that trunk only, so traffic on one hose can never consume another
// hose's guarantee — the property Fig. 4 shows the plain hose model
// lacks.
type TAGPartitioner struct {
	dep *Deployment
	// Counting scratch, reused across calls.
	dsts map[hoseVM]int // (hose, src) -> #active dsts
	srcs map[hoseVM]int // (hose, dst) -> #active srcs
	keys []hoseKey
}

// NewTAGPartitioner returns a GP for the deployment's TAG.
func NewTAGPartitioner(dep *Deployment) *TAGPartitioner {
	return &TAGPartitioner{dep: dep}
}

// hoseKey identifies one directional hose of the TAG: the (fromTier,
// toTier) pair. Self-loops use from == to.
type hoseKey struct{ from, to int }

// hoseVM keys a VM's activity count within one hose.
type hoseVM struct {
	hose hoseKey
	vm   int
}

// AppendPairGuarantees implements Partitioner. For pair (s,d) on hose h:
//
//	g(s,d) = min( S_h / activeDsts(s,h), R_h / activeSrcs(d,h) )
//
// the basic ElasticSwitch partitioning applied per hose.
func (p *TAGPartitioner) AppendPairGuarantees(dst []float64, pairs []Pair) []float64 {
	if p.dsts == nil {
		p.dsts = make(map[hoseVM]int)
		p.srcs = make(map[hoseVM]int)
	}
	clear(p.dsts)
	clear(p.srcs)
	p.keys = p.keys[:0]
	for _, pr := range pairs {
		k := hoseKey{p.dep.tierOf[pr.Src], p.dep.tierOf[pr.Dst]}
		p.keys = append(p.keys, k)
		p.dsts[hoseVM{k, pr.Src}]++
		p.srcs[hoseVM{k, pr.Dst}]++
	}
	for i, pr := range pairs {
		snd, rcv, ok := p.dep.PairGuarantee(pr.Src, pr.Dst)
		if !ok {
			dst = append(dst, 0)
			continue
		}
		k := p.keys[i]
		gs := snd / float64(p.dsts[hoseVM{k, pr.Src}])
		gr := rcv / float64(p.srcs[hoseVM{k, pr.Dst}])
		dst = append(dst, min(gs, gr))
	}
	return dst
}

// Allocation is the result of a work-conserving rate allocation.
type Allocation struct {
	// Rates is the steady-state rate per pair, Mbps.
	Rates []float64
	// Guarantees is the per-pair guarantee GP produced.
	Guarantees []float64
}
