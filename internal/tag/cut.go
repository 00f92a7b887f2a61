package tag

import "math"

// Cut returns the bandwidth that must be allocated on the uplink of a
// subtree that contains inside[t] VMs of every tier t (Eq. 1 of the
// paper). out is C(X,out), the bandwidth for traffic leaving the subtree;
// in is C(X,in), the bandwidth for traffic entering it.
//
// For every trunk edge t→t' the outgoing requirement is
//
//	min(N_X(t)·S, N_X̄(t')·R)
//
// and the incoming requirement is min(N_X̄(t)·S, N_X(t')·R), where N_X is
// the count inside the subtree and N_X̄ = N − N_X the count outside. A
// self-loop on tier t contributes min(N_X(t), N_X̄(t))·SR in each
// direction. External tiers are always entirely outside the subtree; an
// unbounded external tier (N == 0) never limits the min.
//
// inside must have length g.Tiers(); counts for external tiers must be 0.
func (g *Graph) Cut(inside []int) (out, in float64) {
	for _, e := range g.edges {
		o, i := g.edgeCut(e, inside)
		out += o
		in += i
	}
	return out, in
}

// edgeCut returns the contribution of a single edge to the subtree cut.
// This is the innermost loop of every placement decision, so it reads
// tier fields through pointers (no Tier copies) and branches on the
// unbounded-external cases directly instead of routing +Inf through
// cappedMin: an inside guarantee (count·rate) is always finite, so when
// the outside tier is unbounded the inside side alone is the min.
func (g *Graph) edgeCut(e Edge, inside []int) (out, in float64) {
	from := &g.tiers[e.From]
	if e.SelfLoop() {
		nx := inside[e.From]
		h := float64(min(nx, from.N-nx)) * e.S
		return h, h
	}
	to := &g.tiers[e.To]
	fromIn, toIn := inside[e.From], inside[e.To]

	// Outgoing: senders inside, receivers outside.
	out = float64(fromIn) * e.S
	if !(to.External && to.N == 0) {
		if rcv := float64(to.N-toIn) * e.R; rcv < out {
			out = rcv
		}
	}

	// Incoming: senders outside, receivers inside.
	in = float64(toIn) * e.R
	if !(from.External && from.N == 0) {
		if snd := float64(from.N-fromIn) * e.S; snd < in {
			in = snd
		}
	}
	return out, in
}

// outsideCap returns the aggregate guarantee of the part of tier t outside
// the subtree. An unbounded external tier never limits the requirement
// (+Inf), even when the spec leaves its per-VM value at zero — the
// binding guarantee is the tenant side's.
func outsideCap(t Tier, insideCount int, perVM float64) float64 {
	if t.External && t.N == 0 {
		return math.Inf(1)
	}
	return float64(t.N-insideCount) * perVM
}

// cappedMin is min(a, b) treating +Inf as "unbounded"; if both sides are
// unbounded the requirement is unbounded too, which callers must have
// excluded via Validate (an edge between two unbounded external tiers is
// never placeable and contributes nothing meaningful).
func cappedMin(a, b float64) float64 {
	// Branchy min instead of math.Min: inputs are never NaN (products of
	// counts and validated rates), and this inlines where the assembly
	// intrinsic does not. +Inf is the only value above MaxFloat64.
	m := a
	if b < m {
		m = b
	}
	if m > math.MaxFloat64 {
		return 0
	}
	return m
}

// SplitCut partitions the cut at inside by whether an edge touches tier
// t: it returns the summed contribution of the non-touching edges (which
// is invariant under changes to inside[t]) and appends the touching
// edges to buf. Callers probing many values of one tier's inside count
// pay for only the touching edges per probe (see EdgesCut).
func (g *Graph) SplitCut(inside []int, t int, buf []Edge) (fixOut, fixIn float64, touching []Edge) {
	touching = buf
	for _, e := range g.edges {
		if e.From == t || e.To == t {
			touching = append(touching, e)
			continue
		}
		o, i := g.edgeCut(e, inside)
		fixOut += o
		fixIn += i
	}
	return fixOut, fixIn, touching
}

// EdgesCut sums the cut contribution of the given edges at inside, in
// the order given — the probe half of a SplitCut. Callers comparing
// marginal cuts at several values of one tier's count need only the
// edges incident to that tier (the rest cancels out of any difference).
func (g *Graph) EdgesCut(edges []Edge, inside []int) (out, in float64) {
	for _, e := range edges {
		o, i := g.edgeCut(e, inside)
		out += o
		in += i
	}
	return out, in
}

// CutOut returns only the outgoing component of Cut.
func (g *Graph) CutOut(inside []int) float64 {
	out, _ := g.Cut(inside)
	return out
}

// CutIn returns only the incoming component of Cut.
func (g *Graph) CutIn(inside []int) float64 {
	_, in := g.Cut(inside)
	return in
}

// ExternalDemand returns the cut bandwidth of the whole tenant: the
// guarantees toward external components that must be available on every
// link from the tenant's lowest common subtree up to the topology root.
func (g *Graph) ExternalDemand() (out, in float64) {
	return g.Cut(g.Sizes())
}
