package dataplane

import (
	"math"
	"slices"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
)

// This file holds the component-incremental machinery behind
// Driver.Step: flow-state refresh, the kept link loads, the union-find
// structure rebuild with the proof that lets a period skip it, and the
// per-component GP/RA/limiter solve.
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
//
// Link loads are kept across periods, and a link's load is always a
// pure function of the current declarations: the fold, in admission
// order, of each crossing tenant's contribution, itself the fold of its
// pairs' demands in pair order. A change refolds the affected links
// from those contributions — never a running += / -=, whose result
// would depend on the history of declarations — so a driver rebuilt
// from scratch (crash recovery re-attaches the surviving tenants in
// admission order) holds the same bits as one that lived through every
// redeclaration.

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

// contended reports whether link l's declared load can fill it.
func (d *Driver) contended(l netem.LinkID) bool {
	return d.linkLoad[l] > d.fabCaps[l]*(1-contendedRel)-contendedAbs
}

// component is one set of tenants connected through contended links.
type component struct {
	// members lists the tenants in admission order.
	members []*tenant
}

// linkRef is one tenant's entry in a link's adjacency list: the tenant
// and the link's position in its links (and loads).
type linkRef struct {
	t  *tenant
	at int32
}

// prepare brings flow state, link loads and the component structure up
// to date with every declaration that changed since the last period, at
// a cost proportional to the change: only queued tenants are touched,
// only the links they cross (or a released tenant crossed) are
// refolded, and the structure is rebuilt only when it can have moved.
//
// The structure is a function of which tenants cross which links and of
// each link's contended bit. Link sets move only with membership events
// — admit, resize, release, a new pair set — and each of those sets
// structureDirty; contended bits move only when a load is refolded, and
// refold sets structureDirty when one does. If neither happened the
// structure already built is the one a rebuild would produce, carried
// settled state included, and the rebuild is skipped.
func (d *Driver) prepare() {
	d.refreshLoads()
	if d.structureDirty {
		d.rebuildComponents()
		d.structureDirty = false
	}
}

// refreshLoads re-derives the flow state and load contributions of the
// queued tenants and refolds every link left stale, setting
// structureDirty if that moved a link across the contended threshold.
func (d *Driver) refreshLoads() {
	for _, t := range d.changed {
		t.queued = false
		if t.flowsDirty {
			d.refreshFlows(t)
		}
		d.foldLoads(t)
	}
	clear(d.changed)
	d.changed = d.changed[:0]
	for _, l := range d.staleLinks {
		d.refold(l)
	}
	d.staleLinks = d.staleLinks[:0]
}

// refreshFlows rebuilds a tenant's derived flow state from its demands
// and binding: enforced pairs (tenant-local IDs), their fabric paths,
// the deduplicated link set with the tenant's place in each link's
// adjacency, and the demand→pair index. Limiter values carry over for
// pairs present before and after (by (Src, Dst) key); pairs new to the
// declaration start unseen (NaN), which the solve initializes at the
// pair's guarantee. The guarantees are partitioned anew over the new
// pair set; the last solve's rates describe flows that no longer exist
// and are dropped.
func (d *Driver) refreshFlows(t *tenant) {
	if t.demands == nil {
		t.demands = defaultDemands(t.bind.Deployment())
	}
	// Save the previous pair keys and limits for the carry-over merge.
	// Both pair lists ascend by (Src, Dst) — demands are kept sorted —
	// so a linear merge aligns them.
	oldPairs := append(d.oldPairs[:0], t.pairs...)
	oldLimits := append(d.oldLimits[:0], t.limits...)
	d.oldPairs, d.oldLimits = oldPairs, oldLimits

	d.unlink(t)
	t.pairIdx = t.pairIdx[:0]
	t.pairs = t.pairs[:0]
	t.paths = t.paths[:0]
	t.limits = t.limits[:0]
	t.guarantees = t.guarantees[:0]
	t.rates = t.rates[:0]
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
	slices.Sort(t.links)
	t.links = slices.Compact(t.links)
	d.link(t)

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
	// GP reads the ordered (Src, Dst) sequence and the deployment, nothing
	// else (enforce.Partitioner), and this is the only place that sequence
	// changes: partition once here, and every solve until the next new
	// pair set appends the kept slice.
	t.guarantees = enforce.AppendGuarantees(t.guarantees, t.gp, t.pairs)
	t.flowsDirty = false
	t.settled = false
	// The tenant may now cross other links: a membership event.
	d.structureDirty = true
}

// unlink takes a tenant out of the adjacency of every link it crosses
// and leaves those links to be refolded without it.
func (d *Driver) unlink(t *tenant) {
	for _, l := range t.links {
		refs := d.linkTenants[l]
		i := 0
		for refs[i].t != t {
			i++
		}
		d.linkTenants[l] = slices.Delete(refs, i, i+1)
		d.markStale(l)
	}
	t.links = t.links[:0]
}

// link enters a tenant into the adjacency of every link it crosses, at
// its admission rank. A new tenant ranks last; a resized one keeps the
// rank it was admitted with.
func (d *Driver) link(t *tenant) {
	for at, l := range t.links {
		refs := d.linkTenants[l]
		i := len(refs)
		if i > 0 && refs[i-1].t.pos > t.pos {
			i, _ = slices.BinarySearchFunc(refs, t.pos, func(r linkRef, pos int) int {
				return r.t.pos - pos
			})
		}
		d.linkTenants[l] = slices.Insert(refs, i, linkRef{t, int32(at)})
	}
}

// foldLoads recomputes a tenant's contribution to the declared load of
// each link it crosses — Σ Demand over its pairs crossing the link, in
// (pair, path) order — and leaves those links to be refolded.
func (d *Driver) foldLoads(t *tenant) {
	for _, l := range t.links {
		d.loadScratch[l] = 0
	}
	for i, pr := range t.pairs {
		for _, l := range t.paths[i] {
			d.loadScratch[l] += pr.Demand
		}
	}
	t.loads = t.loads[:0]
	for _, l := range t.links {
		t.loads = append(t.loads, d.loadScratch[l])
		d.markStale(l)
	}
}

// markStale queues link l for a refold before the next period reads
// its load.
func (d *Driver) markStale(l netem.LinkID) {
	if !d.stale[l] {
		d.stale[l] = true
		d.staleLinks = append(d.staleLinks, l)
	}
}

// refold recomputes link l's declared load from the contributions of
// the tenants crossing it, in admission order, and asks for a structure
// rebuild if that moved the link across the contended threshold.
func (d *Driver) refold(l netem.LinkID) {
	was := d.contended(l)
	load := 0.0
	for _, r := range d.linkTenants[l] {
		load += r.t.loads[r.at]
	}
	d.linkLoad[l] = load
	d.stale[l] = false
	if d.contended(l) != was {
		d.structureDirty = true
	}
}

// rebuildComponents recomputes the components of the tenant–link graph:
// it unions tenants that share a contended link, reading the kept link
// loads. A component whose membership is identical to its previous
// incarnation keeps its members' settled state; grown, shrunk, merged,
// or split components lose it, because the capacity their members
// compete for changed. All scratch is driver-owned: a rebuild that
// finds the same structure allocates nothing.
func (d *Driver) rebuildComponents() {
	n := len(d.order)
	d.ufParent = d.ufParent[:0]
	for i := 0; i < n; i++ {
		d.ufParent = append(d.ufParent, int32(i))
	}

	// Tenants sharing a contended link share a component: each such link
	// remembers its first owner this rebuild, later owners union into it.
	// Slack links couple nobody.
	for l := range d.linkOwner {
		d.linkOwner[l] = -1
	}
	for ti, t := range d.order {
		for _, l := range t.links {
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
	for ti, t := range d.order {
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
		d.comps[ci].members = append(d.comps[ci].members, t)
	}
	d.comps = d.comps[:nc]
	d.compSizes = d.compSizes[:0]
	for ci := range d.comps {
		members := d.comps[ci].members
		d.compSizes = append(d.compSizes, len(members))
		oldc := members[0].comp
		carried := oldc >= 0 && oldc < len(d.prevSizes) && d.prevSizes[oldc] == len(members)
		if carried {
			for _, t := range members {
				if t.comp != oldc {
					carried = false
					break
				}
			}
		}
		for _, t := range members {
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

// limiterStep moves a rate limiter alpha of the way from cur toward its
// RA target. Both the step and the fixed-point test below go through
// it, so the test predicts the next period's arithmetic exactly.
func limiterStep(cur, target, alpha float64) float64 {
	return cur + alpha*(target-cur)
}

// solveComponent runs one control period for one component: a
// component-wide work-conserving RA over the members' kept GP guarantees
// (partitioned when their pair sets last changed, see refreshFlows), the
// alpha step of every limiter toward its target, and the achieved-rates
// solve under the new limits. Results — and the report aggregates folded
// from them — land in the member tenants' caches. It returns the largest
// change of any pair's achieved rate against the cached one, +Inf when a
// member's flows are new (nothing to compare with).
//
// A solve is a pure function of (pairs, guarantees, previous limits):
// the guarantees depend only on the pair set, RA's targets only on
// pairs, paths and guarantees — neither sees a limit — and each new
// limit is limiterStep(previous, target). So once one more limiter step
// would change no limit, the next period's solve would compute these
// targets, these limits and therefore these rates again, bit for bit,
// for as long as nobody redeclares: the component is settled and
// skipping it is exact, not approximate.
func (d *Driver) solveComponent(ctx *solveCtx, c *component) (float64, error) {
	// Gather the component's pairs, paths, and per-tenant guarantees.
	ctx.pairs = ctx.pairs[:0]
	ctx.paths = ctx.paths[:0]
	ctx.guarantees = ctx.guarantees[:0]
	for _, t := range c.members {
		ctx.pairs = append(ctx.pairs, t.pairs...)
		ctx.paths = append(ctx.paths, t.paths...)
		ctx.guarantees = append(ctx.guarantees, t.guarantees...)
	}

	// RA: work-conserving targets over the component's links.
	targets, err := ctx.ra.Alloc(d.fab.Network(), ctx.pairs, ctx.paths, ctx.guarantees)
	if err != nil {
		return 0, err
	}

	// Limiters: alpha of the way toward the target; unseen pairs (NaN)
	// start at their guarantee.
	alpha := d.cfg.alpha()
	settled := true
	ctx.newLimits = ctx.newLimits[:0]
	off := 0
	for _, t := range c.members {
		for j, cur := range t.limits {
			if math.IsNaN(cur) {
				cur = ctx.guarantees[off+j]
			}
			nl := limiterStep(cur, targets[off+j], alpha)
			if math.Float64bits(limiterStep(nl, targets[off+j], alpha)) != math.Float64bits(nl) {
				settled = false
			}
			ctx.newLimits = append(ctx.newLimits, nl)
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
		return 0, err
	}

	// Fold results into the member caches.
	moved := 0.0
	off = 0
	for _, t := range c.members {
		np := len(t.pairs)
		rates := ctx.rates[off : off+np]
		if len(t.rates) != np {
			moved = math.Inf(1)
		} else {
			for j, r := range rates {
				if delta := math.Abs(r - t.rates[j]); delta > moved {
					moved = delta
				}
			}
		}
		t.limits = append(t.limits[:0], ctx.newLimits[off:off+np]...)
		t.rates = append(t.rates[:0], rates...)
		t.dirty = false
		t.settled = settled
		d.stats[t.pos] = t.foldStats()
		off += np
	}
	return moved, nil
}

// foldStats folds the tenant's report aggregates from its solve caches,
// in pair order.
func (t *tenant) foldStats() TenantStats {
	ts := TenantStats{
		Key: t.key, ID: t.id,
		Pairs: len(t.pairs), Colocated: len(t.demands) - len(t.pairs),
		MinRatio: 1,
	}
	for j, pr := range t.pairs {
		ts.GuaranteedMbps += t.guarantees[j]
		ts.AchievedMbps += t.rates[j]
		base := math.Min(pr.Demand, t.guarantees[j])
		ts.BaseMbps += base
		if base > 0 {
			if ratio := t.rates[j] / base; ratio < ts.MinRatio {
				ts.MinRatio = ratio
			}
		}
	}
	ts.SpareMbps = ts.AchievedMbps - ts.BaseMbps
	return ts
}
