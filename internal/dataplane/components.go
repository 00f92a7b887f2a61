package dataplane

import (
	"math"
	"sort"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
)

// This file holds the component-incremental machinery behind
// Driver.Step: flow-state refresh, the union-find structure rebuild,
// and the per-component GP/RA/limiter solve.
//
// Weighted max-min decomposes over connected components of the
// flow–link graph, where only links that can saturate count as edges: a
// water-level round freezes flows on saturated links and nowhere else,
// so a link that cannot fill never makes one flow's rate depend on
// another's. The driver therefore unions tenants connected through
// contended links (a tenant is indivisible: its guarantee partitioning
// spans all its pairs, colocated ones included) and solves each
// component in isolation — both in incremental mode and under
// FullRecompute, so the two modes differ only in which components they
// skip, never in arithmetic.
//
// A link is contended when its declared load — Σ Demand over every
// enforced pair crossing it — can reach its capacity. One that is slack
// cannot saturate in either solve of a period: RA phase 2 offers it at
// most Σ(demand − base) ≤ residual capacity, and the achieved-rates
// solve at most Σ min(demand, limit) ≤ Σ demand. It freezes no flow,
// its saturation level is never the next water-level event (every flow
// on it reaches its own cap first), and RA's guarantee-overflow check
// on it is implied (Σ base ≤ Σ demand ≤ capacity). Slack links still
// appear on the paths handed to the solvers; they just never bind.
// Greedy demands are +Inf, so a link carrying a backlogged or
// undeclared flow is always contended: the purely structural
// decomposition is the special case "every demand Greedy".
//
// What splitting a component can change: within one solve the water
// level stops at the events of every flow in it, and freeze decisions
// use a 1e-9 band, so removing another component's event levels may
// move a rate inside that band. The contract is therefore three-level:
// incremental vs FullRecompute byte-identical (same structure, same
// demands), contention-aware vs one whole-fabric solve within 1e-6 Mbps
// per pair (TestDifferentialWholeFabricOracle), and same inputs ⇒ same
// bytes at any GOMAXPROCS (loads fold in admission order).

// A link counts as contended when its declared load exceeds its
// capacity less these margins: contendedRel mirrors the solver's freeze
// epsilon (netem: a link saturates within 1e-9), contendedAbs RA's
// overflow tolerance (enforce: reservations may overshoot a link by
// 1e-6 Mbps). Both err toward coupling; float error in the load fold is
// orders of magnitude below either.
const (
	contendedRel = 1e-9
	contendedAbs = 1e-6
)

// contended reports whether link l's declared load (as of the last
// structure rebuild) can fill it.
func (d *Driver) contended(l netem.LinkID) bool {
	return d.linkLoad[l] > d.fabCaps[l]*(1-contendedRel)-contendedAbs
}

// component is one set of tenants connected through contended links.
type component struct {
	// members lists tenant keys in admission order.
	members []int64
}

// refreshFlows rebuilds a tenant's derived flow state from its demands
// and binding: enforced pairs (tenant-local IDs), their fabric paths,
// the deduplicated link set, and the demand→pair index. Limiter values
// carry over for pairs present before and after (by (Src, Dst) key);
// pairs new to the declaration start unseen (NaN), which the solve
// initializes at the pair's guarantee.
func (d *Driver) refreshFlows(t *tenant) {
	if t.demands == nil {
		t.demands = defaultDemands(t.bind.Deployment())
	}
	// Save the previous pair keys and limits for the carry-over merge.
	// Both pair lists ascend by (Src, Dst) — demands are kept sorted —
	// so a linear merge aligns them.
	oldPairs := append([]enforce.Pair(nil), t.pairs...)
	oldLimits := append([]float64(nil), t.limits...)

	t.pairIdx = t.pairIdx[:0]
	t.pairs = t.pairs[:0]
	t.paths = t.paths[:0]
	t.links = t.links[:0]
	t.limits = t.limits[:0]
	for _, dm := range t.demands {
		path := d.fab.Path(t.bind.Server(dm.Src), t.bind.Server(dm.Dst))
		if len(path) == 0 {
			t.pairIdx = append(t.pairIdx, -1)
			continue
		}
		t.pairIdx = append(t.pairIdx, int32(len(t.pairs)))
		t.pairs = append(t.pairs, enforce.Pair{Src: dm.Src, Dst: dm.Dst, Demand: dm.Mbps})
		t.paths = append(t.paths, path)
		t.links = append(t.links, path...)
	}
	sort.Slice(t.links, func(i, j int) bool { return t.links[i] < t.links[j] })
	uniq := t.links[:0]
	for _, l := range t.links {
		if len(uniq) == 0 || uniq[len(uniq)-1] != l {
			uniq = append(uniq, l)
		}
	}
	t.links = uniq

	// Carry limiter state for surviving pairs.
	oi := 0
	for _, pr := range t.pairs {
		for oi < len(oldPairs) && (oldPairs[oi].Src < pr.Src ||
			(oldPairs[oi].Src == pr.Src && oldPairs[oi].Dst < pr.Dst)) {
			oi++
		}
		if oi < len(oldPairs) && oldPairs[oi].Src == pr.Src && oldPairs[oi].Dst == pr.Dst {
			t.limits = append(t.limits, oldLimits[oi])
			oi++
		} else {
			t.limits = append(t.limits, math.NaN())
		}
	}
	t.flowsDirty = false
	t.fresh = true
	t.settled = false
}

// rebuildComponents recomputes the components of the tenant–link graph:
// it folds every enforced pair's declared demand into per-link loads,
// then unions tenants that share a contended link. A component whose
// membership is identical to its previous incarnation keeps its
// members' settled state; grown, shrunk, merged, or split components
// lose it, because the capacity their members compete for changed. All
// scratch is driver-owned: a rebuild that finds the same structure
// allocates nothing.
func (d *Driver) rebuildComponents() {
	n := len(d.order)
	d.ufParent = d.ufParent[:0]
	for i := 0; i < n; i++ {
		d.ufParent = append(d.ufParent, int32(i))
	}

	// Declared load per link, folded in (admission, pair, path) order so
	// the sums — and the structure they decide — are the same bits on
	// every run.
	if len(d.linkLoad) < len(d.fabCaps) {
		d.linkLoad = make([]float64, len(d.fabCaps))
		d.linkOwner = make([]int32, len(d.fabCaps))
	}
	clear(d.linkLoad)
	for _, key := range d.order {
		t := d.tenants[key]
		for i, pr := range t.pairs {
			for _, l := range t.paths[i] {
				d.linkLoad[l] += pr.Demand
			}
		}
	}

	// Tenants sharing a contended link share a component: each such link
	// remembers its first owner this rebuild, later owners union into it.
	// Slack links couple nobody.
	for l := range d.linkOwner {
		d.linkOwner[l] = -1
	}
	for ti, key := range d.order {
		for _, l := range d.tenants[key].links {
			if !d.contended(l) {
				continue
			}
			if o := d.linkOwner[l]; o >= 0 {
				d.ufUnion(int32(ti), o)
			} else {
				d.linkOwner[l] = int32(ti)
			}
		}
	}

	// Group into components, ordered by first member (admission order),
	// and detect carried-over components: same members, same size as
	// their shared previous component — nothing joined, left, or
	// released, so the cached fixed point still holds. Union-find roots
	// are tenant indices, so the root→component map is a dense slice.
	d.prevSizes = append(d.prevSizes[:0], d.compSizes...)
	d.compOf = d.compOf[:0]
	for i := 0; i < n; i++ {
		d.compOf = append(d.compOf, -1)
	}
	for i := range d.comps {
		d.comps[i].members = d.comps[i].members[:0]
	}
	nc := 0
	for ti, key := range d.order {
		r := d.ufFind(int32(ti))
		ci := int(d.compOf[r])
		if ci < 0 {
			ci = nc
			d.compOf[r] = int32(ci)
			nc++
			if ci == len(d.comps) {
				d.comps = append(d.comps, component{})
			}
		}
		d.comps[ci].members = append(d.comps[ci].members, key)
	}
	d.comps = d.comps[:nc]
	d.compSizes = d.compSizes[:0]
	for ci := range d.comps {
		members := d.comps[ci].members
		d.compSizes = append(d.compSizes, len(members))
		oldc := d.tenants[members[0]].comp
		carried := oldc >= 0 && oldc < len(d.prevSizes) && d.prevSizes[oldc] == len(members)
		if carried {
			for _, key := range members {
				if d.tenants[key].comp != oldc {
					carried = false
					break
				}
			}
		}
		for _, key := range members {
			t := d.tenants[key]
			t.comp = ci
			if !carried {
				t.settled = false
			}
		}
	}
}

// ufFind returns the union-find root of tenant index x, halving the
// path as it walks.
func (d *Driver) ufFind(x int32) int32 {
	for d.ufParent[x] != x {
		d.ufParent[x] = d.ufParent[d.ufParent[x]]
		x = d.ufParent[x]
	}
	return x
}

// ufUnion merges the sets of tenant indices a and b.
func (d *Driver) ufUnion(a, b int32) {
	ra, rb := d.ufFind(a), d.ufFind(b)
	if ra != rb {
		d.ufParent[rb] = ra
	}
}

// solveCtx is the pooled per-goroutine scratch one component solve
// uses: the RA and achieved-rates solver plus the gathered pair lists.
type solveCtx struct {
	ra         enforce.RA
	solver     netem.Solver
	pairs      []enforce.Pair
	paths      [][]netem.LinkID
	guarantees []float64
	newLimits  []float64
	flows      []netem.Flow
	rates      []float64
}

// solveComponent runs one control period for one component: GP per
// member tenant, a component-wide work-conserving RA, the alpha step of
// every limiter toward its target, and the achieved-rates solve under
// the new limits. Results land in the member tenants' caches; settled
// is set when the solve reproduced limits and rates bit-for-bit, which
// makes the next solve provably identical and therefore skippable.
func (d *Driver) solveComponent(ctx *solveCtx, c *component) error {
	// Gather the component's pairs, paths, and per-tenant guarantees.
	ctx.pairs = ctx.pairs[:0]
	ctx.paths = ctx.paths[:0]
	ctx.guarantees = ctx.guarantees[:0]
	for _, key := range c.members {
		t := d.tenants[key]
		ctx.pairs = append(ctx.pairs, t.pairs...)
		ctx.paths = append(ctx.paths, t.paths...)
		ctx.guarantees = enforce.AppendGuarantees(ctx.guarantees, t.gp, t.pairs)
	}

	// RA: work-conserving targets over the component's links.
	targets, err := ctx.ra.Alloc(d.fab.Network(), ctx.pairs, ctx.paths, ctx.guarantees)
	if err != nil {
		return err
	}

	// Limiters: alpha of the way toward the target; unseen pairs (NaN)
	// start at their guarantee.
	alpha := d.cfg.alpha()
	ctx.newLimits = ctx.newLimits[:0]
	off := 0
	for _, key := range c.members {
		t := d.tenants[key]
		for j := range t.pairs {
			cur := t.limits[j]
			if math.IsNaN(cur) {
				cur = ctx.guarantees[off+j]
			}
			ctx.newLimits = append(ctx.newLimits, cur+alpha*(targets[off+j]-cur))
		}
		off += len(t.pairs)
	}

	// Achieved rates this period: guarantee-weighted max-min under the
	// new limits on the full-capacity fabric.
	ctx.flows = ctx.flows[:0]
	for i, pr := range ctx.pairs {
		ctx.flows = append(ctx.flows, netem.Flow{
			Path:   ctx.paths[i],
			Demand: pr.Demand,
			Limit:  ctx.newLimits[i],
			Weight: ctx.guarantees[i] + 1,
		})
	}
	ctx.rates, err = ctx.solver.MaxMinCaps(d.fabCaps, ctx.flows, ctx.rates[:0])
	if err != nil {
		return err
	}

	// Fold results into the member caches and decide settledness: a
	// component whose limits and rates came out bit-identical to the
	// previous period is at its fixed point — the solve is a pure
	// function of state it just reproduced, so the next period would
	// recompute exactly this, and may be skipped.
	off = 0
	settled := true
	for _, key := range c.members {
		t := d.tenants[key]
		np := len(t.pairs)
		if t.fresh || len(t.rates) != np {
			settled = false
		} else {
			for j := 0; j < np; j++ {
				if math.Float64bits(t.limits[j]) != math.Float64bits(ctx.newLimits[off+j]) ||
					math.Float64bits(t.rates[j]) != math.Float64bits(ctx.rates[off+j]) {
					settled = false
					break
				}
			}
		}
		t.guarantees = append(t.guarantees[:0], ctx.guarantees[off:off+np]...)
		t.limits = append(t.limits[:0], ctx.newLimits[off:off+np]...)
		t.rates = append(t.rates[:0], ctx.rates[off:off+np]...)
		t.fresh = false
		t.dirty = false
		off += np
	}
	for _, key := range c.members {
		d.tenants[key].settled = settled
	}
	return nil
}
