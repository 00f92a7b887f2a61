package dataplane

import (
	"errors"
	"math"
	"sort"
	"sync"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/parallel"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Config tunes a Driver. The zero value is valid: alpha 1 (rate
// limiters jump straight to their targets) under TAG partitioning,
// with incremental (component-dirty) stepping.
type Config struct {
	// Alpha is the per-period convergence step of each rate limiter
	// toward its RA target, in (0,1]; 0 means 1.
	Alpha float64
	// Partitioner names the guarantee-partitioning scheme: "tag" (the
	// default, the paper's §5.2 patch), "hose" (single-hose baseline,
	// the Fig. 4 failure mode), or "gatekeeper" (§2.2 baseline).
	Partitioner string
	// FullRecompute disables incremental stepping: every control period
	// re-solves every connected component, whether or not anything
	// changed since the last period. The escape hatch exists for
	// debugging and for the differential harness that proves the
	// incremental path equivalent; both modes produce byte-identical
	// step transcripts.
	FullRecompute bool
}

// alpha resolves the configured convergence step.
func (c Config) alpha() float64 {
	if c.Alpha == 0 {
		return 1
	}
	return c.Alpha
}

// validate rejects malformed configs with a typed error.
func (c Config) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return place.Rejectf("configure", place.ReasonInvalidRequest,
			"enforcement alpha %g outside (0,1]", c.Alpha)
	}
	switch c.Partitioner {
	case "", "tag", "hose", "gatekeeper":
		return nil
	}
	return place.Rejectf("configure", place.ReasonInvalidRequest,
		"unknown partitioner %q: valid values are tag, hose, gatekeeper", c.Partitioner)
}

// newPartitioner builds the configured GP over one tenant's deployment.
func (c Config) newPartitioner(dep *enforce.Deployment) enforce.Partitioner {
	switch c.Partitioner {
	case "hose":
		return enforce.NewHosePartitioner(dep)
	case "gatekeeper":
		return enforce.NewGatekeeperPartitioner(dep)
	}
	return enforce.NewTAGPartitioner(dep)
}

// GreedyDemand marks a Demand whose source is always backlogged
// (netem.Greedy, re-exported so layers above need not import netem).
var GreedyDemand = netem.Greedy

// Demand is one active flow of a tenant: the ordered VM pair (IDs in
// the tenant's tier-major deployment order, see Binding) and its
// offered load in Mbps (netem.Greedy for a backlogged source).
type Demand struct {
	// Src and Dst are tenant-local VM IDs.
	Src, Dst int
	// Mbps is the offered load; netem.Greedy means always backlogged.
	Mbps float64
}

// Counters are a driver's monotonic event counters — the incremental-
// update audit trail: FabricBuilds stays at 1 for the driver's
// lifetime (events patch state, they never rebuild the fabric), and
// the lifecycle counters match the control plane's own counts.
type Counters struct {
	// Admitted, Resized, and Released count lifecycle events applied to
	// enforcement state.
	Admitted, Resized, Released int64
	// Skipped counts events that installed nothing: tenants admitted
	// under a translated model (VOC, pipes — no TAG to enforce) and
	// resizes of such tenants.
	Skipped int64
	// FabricBuilds counts fabric constructions; 1 unless something is
	// deeply wrong.
	FabricBuilds int64
}

// tenant is one enforced tenant's dataplane state: the deployment
// itself, plus the flow-level solve caches the incremental stepper
// splices for components that did not change.
type tenant struct {
	key, id int64
	graph   *tag.Graph
	bind    *Binding
	gp      enforce.Partitioner
	// demands are the tenant's active flows, sorted by (Src, Dst); nil
	// means "not set" and defaults, lazily, to every TAG-permitted pair
	// backlogged.
	demands []Demand

	// Derived flow state, rebuilt by refreshFlows when flowsDirty:
	// pairIdx maps each demand to its index in the enforced-pair lists
	// (-1 for colocated pairs, which never cross the fabric), and links
	// is the deduplicated set of fabric links the tenant's paths touch —
	// the adjacency the component rebuild unions over.
	flowsDirty bool
	pairIdx    []int32
	pairs      []enforce.Pair // tenant-local VM IDs
	paths      [][]netem.LinkID
	links      []netem.LinkID

	// Solve caches, one entry per enforced pair: the last solve's
	// guarantees, the current limiter values (NaN marks a pair the
	// limiter has not seen, which starts at its guarantee), and the last
	// achieved rates. settled marks a solve that reproduced its limits
	// and rates bit-for-bit — the fixed point at which re-solving is
	// provably a no-op. fresh marks flow state rebuilt since the last
	// solve (caches not comparable).
	dirty      bool
	fresh      bool
	settled    bool
	guarantees []float64
	limits     []float64
	rates      []float64

	// comp is the component id assigned by the last structure rebuild;
	// -1 before the first. The rebuild uses it to detect components
	// whose membership is unchanged, which may keep their settled state.
	comp int
}

// PairStats reports one flow's enforcement outcome in a step.
type PairStats struct {
	// Src and Dst are tenant-local VM IDs.
	Src, Dst int
	// Guarantee is the GP-assigned pair guarantee, Mbps (0 for
	// colocated pairs, which never cross the fabric).
	Guarantee float64
	// Demand is the offered load (possibly netem.Greedy).
	Demand float64
	// Rate is the rate achieved this period. Colocated pairs achieve
	// their full demand (intra-server traffic is not enforced).
	Rate float64
	// Colocated marks intra-server pairs, excluded from enforcement
	// and from the aggregate sums.
	Colocated bool
}

// TenantStats aggregates one tenant's step outcome. Sums and ratios
// cover enforced (fabric-crossing) pairs only.
type TenantStats struct {
	// Key is the grant key; ID the caller-chosen tenant ID.
	Key, ID int64
	// Pairs lists per-flow outcomes in demand order.
	Pairs []PairStats
	// GuaranteedMbps sums the pair guarantees; BaseMbps the
	// demand-bounded guarantees min(demand, guarantee); AchievedMbps
	// the achieved rates; SpareMbps is achieved minus base — the
	// tenant's share of the work-conserving redistribution.
	GuaranteedMbps, BaseMbps, AchievedMbps, SpareMbps float64
	// MinRatio is the minimum over enforced pairs of
	// rate / min(demand, guarantee) — at least 1 (up to float rounding)
	// when the tenant's guarantee is being honored. 1 when no pair
	// qualifies.
	MinRatio float64
}

// StepStats reports one control period over the whole shard.
type StepStats struct {
	// Tenants holds per-tenant outcomes in admission order.
	Tenants []TenantStats
	// Pairs counts enforced (fabric-crossing) flows; Colocated the
	// intra-server flows excluded from enforcement.
	Pairs, Colocated int
	// GuaranteedMbps, BaseMbps, AchievedMbps, and SpareMbps aggregate
	// the per-tenant sums.
	GuaranteedMbps, BaseMbps, AchievedMbps, SpareMbps float64
	// MinRatio is the minimum per-tenant MinRatio (1 when idle).
	MinRatio float64
}

// Driver is one shard's enforcement plane: it consumes Grant lifecycle
// events (implementing place.EventSink) to maintain per-tenant
// deployments, bindings, and flow paths incrementally, and runs the
// GP/RA control loop over the shared fabric.
//
// Steps are component-incremental: weighted max-min couples flows only
// through links that can saturate, so the driver tracks which tenants
// are connected through contended links — links whose declared load,
// Σ Demand over the enforced pairs crossing them, can reach capacity
// (union-find, rebuilt lazily after lifecycle events and demand
// changes; see components.go) — re-solves only components dirtied by
// events, demand changes, or unconverged limiters, and splices cached
// rates for the rest. Tenants that merely cross the same slack link
// stay in separate components; undeclared and Greedy flows make every
// link on their path contended, which is the purely structural
// decomposition. Dirty components solve in parallel; results fold in
// deterministic component order. Config.FullRecompute restores
// solve-everything stepping; both modes produce byte-identical
// transcripts, and either agrees with one whole-fabric solve to 1e-6
// Mbps per pair. All methods are safe for concurrent use.
type Driver struct {
	mu      sync.Mutex
	fab     *Fabric
	fabCaps []float64
	cfg     Config

	tenants map[int64]*tenant
	order   []int64

	// Component structure (see components.go). structureDirty forces a
	// union-find rebuild at the next step; the rest is the rebuild's
	// scratch: per-link declared load and first owner (indexed by
	// LinkID), union-find parents and the root→component map (indexed by
	// position in order), and the previous rebuild's component sizes.
	structureDirty bool
	comps          []component
	compSizes      []int
	prevSizes      []int
	ufParent       []int32
	compOf         []int32
	linkLoad       []float64
	linkOwner      []int32

	// Step scratch and the pooled per-goroutine solve contexts.
	solveSet []int
	allRates []float64
	pool     sync.Pool

	// lastSolved / lastComps report the previous step's incremental
	// effort (SolveStats).
	lastSolved, lastComps int

	counters Counters
	// err latches control-plane invariant violations (a placement that
	// does not match its graph); Step surfaces it rather than enforcing
	// a wrong binding silently.
	err error
}

// New builds the enforcement plane over one shard's tree. The fabric
// is imaged once, here; every later change arrives as an event.
func New(tree *topology.Tree, cfg Config) (*Driver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fab, err := NewFabric(tree)
	if err != nil {
		return nil, err
	}
	caps := make([]float64, fab.Network().Links())
	for l := range caps {
		caps[l] = fab.Network().Capacity(netem.LinkID(l))
	}
	d := &Driver{
		fab:      fab,
		fabCaps:  caps,
		cfg:      cfg,
		tenants:  make(map[int64]*tenant),
		counters: Counters{FabricBuilds: 1},
	}
	d.pool.New = func() any { return &solveCtx{} }
	return d, nil
}

// Publish implements place.EventSink: each lifecycle event patches the
// driver's state incrementally — admit installs the tenant's
// deployment and flows, resize rebinds it, release removes it. Other
// tenants' state (and the fabric) are untouched; the component
// structure is rebuilt lazily at the next step.
func (d *Driver) Publish(ev place.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch ev.Kind {
	case place.EventAdmitted:
		if ev.Graph == nil {
			d.counters.Skipped++
			return
		}
		if d.install(ev) {
			d.counters.Admitted++
		}
	case place.EventResized:
		if _, ok := d.tenants[ev.Key]; !ok || ev.Graph == nil {
			d.counters.Skipped++
			return
		}
		if d.install(ev) {
			d.counters.Resized++
		}
	case place.EventReleased:
		if _, ok := d.tenants[ev.Key]; !ok {
			return
		}
		delete(d.tenants, ev.Key)
		for i, k := range d.order {
			if k == ev.Key {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
		// The departed tenant's capacity is freed; its former
		// co-members re-solve (the rebuild sees their component shrink).
		d.structureDirty = true
		d.counters.Released++
	}
}

// install binds the event's footprint and (re)installs the tenant,
// reporting whether it took effect.
func (d *Driver) install(ev place.Event) bool {
	bind, err := Bind(ev.Graph, ev.Placement)
	if err != nil {
		d.err = errors.Join(d.err, err)
		d.counters.Skipped++
		return false
	}
	t, ok := d.tenants[ev.Key]
	if !ok {
		t = &tenant{key: ev.Key, id: ev.ID, comp: -1}
		d.tenants[ev.Key] = t
		d.order = append(d.order, ev.Key)
	}
	t.graph, t.bind, t.gp = ev.Graph, bind, d.cfg.newPartitioner(bind.Deployment())
	t.demands = nil // VM IDs changed; offered loads must be re-declared
	// The VM set changed: flow state and limiter values are meaningless
	// under the new binding. Pairs restart at their guarantees.
	t.flowsDirty, t.dirty = true, true
	t.pairs = t.pairs[:0]
	t.limits = t.limits[:0]
	d.structureDirty = true
	return true
}

// SetDemand declares a tenant's active flows (replacing any previous
// declaration) for subsequent control periods. Demands are tenant-local
// VM pairs; a resize resets them to the backlogged default, so callers
// re-declare after resizing. Unknown keys and malformed entries fail
// with a typed InvalidRequest rejection.
//
// Re-declaring a tenant's current demands verbatim is a no-op and does
// not dirty its component; changing only offered loads re-solves the
// component without rebuilding flow state (the component structure is
// rebuilt: loads decide which links are contended). A pair may appear
// at most once.
func (d *Driver) SetDemand(key int64, demands []Demand) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[key]
	if !ok {
		return place.Rejectf("enforce", place.ReasonInvalidRequest,
			"no tenant with key %d under enforcement", key)
	}
	vms := t.bind.VMs()
	ds := make([]Demand, len(demands))
	copy(ds, demands)
	for _, dm := range ds {
		if dm.Src < 0 || dm.Src >= vms || dm.Dst < 0 || dm.Dst >= vms {
			return place.Rejectf("enforce", place.ReasonInvalidRequest,
				"demand pair (%d,%d) outside tenant's %d VMs", dm.Src, dm.Dst, vms)
		}
		if dm.Src == dm.Dst {
			return place.Rejectf("enforce", place.ReasonInvalidRequest,
				"demand pair (%d,%d) is a self-flow", dm.Src, dm.Dst)
		}
		if math.IsNaN(dm.Mbps) || dm.Mbps < 0 {
			return place.Rejectf("enforce", place.ReasonInvalidRequest,
				"demand pair (%d,%d) has invalid offered load %g", dm.Src, dm.Dst, dm.Mbps)
		}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Src != ds[j].Src {
			return ds[i].Src < ds[j].Src
		}
		return ds[i].Dst < ds[j].Dst
	})
	for i := 1; i < len(ds); i++ {
		if ds[i].Src == ds[i-1].Src && ds[i].Dst == ds[i-1].Dst {
			return place.Rejectf("enforce", place.ReasonInvalidRequest,
				"demand pair (%d,%d) declared twice", ds[i].Src, ds[i].Dst)
		}
	}

	// Classify the change: identical declarations are no-ops, same-pair
	// declarations only update offered loads (paths and links are
	// untouched, but the loads decide which links are contended, so the
	// component structure is rebuilt), new pair sets rebuild flow state
	// too.
	if t.demands != nil && !t.flowsDirty {
		samePairs := len(ds) == len(t.demands)
		sameLoads := samePairs
		if samePairs {
			for i := range ds {
				if ds[i].Src != t.demands[i].Src || ds[i].Dst != t.demands[i].Dst {
					samePairs, sameLoads = false, false
					break
				}
				if math.Float64bits(ds[i].Mbps) != math.Float64bits(t.demands[i].Mbps) {
					sameLoads = false
				}
			}
		}
		if sameLoads {
			return nil
		}
		if samePairs {
			t.demands = ds
			for di, dm := range ds {
				if pi := t.pairIdx[di]; pi >= 0 {
					t.pairs[pi].Demand = dm.Mbps
				}
			}
			t.dirty = true
			d.structureDirty = true
			return nil
		}
	}
	t.demands = ds
	t.flowsDirty, t.dirty = true, true
	d.structureDirty = true
	return nil
}

// defaultDemands backs an undeclared tenant with the backlogged
// default: every TAG-permitted ordered pair sends greedily.
func defaultDemands(dep *enforce.Deployment) []Demand {
	var ds []Demand
	for s := 0; s < dep.VMs(); s++ {
		for t := 0; t < dep.VMs(); t++ {
			if s == t {
				continue
			}
			if _, _, ok := dep.PairGuarantee(s, t); ok {
				ds = append(ds, Demand{Src: s, Dst: t, Mbps: netem.Greedy})
			}
		}
	}
	return ds
}

// Tenants returns the number of tenants under enforcement.
func (d *Driver) Tenants() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tenants)
}

// Counters returns the driver's monotonic event counters.
func (d *Driver) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// RestoreCounters overwrites the lifecycle counters with snapshot
// values after crash recovery re-attached the surviving tenants (whose
// attach events bumped the counters as if freshly admitted);
// FabricBuilds keeps this driver's own count — the fabric really was
// rebuilt. Driven only by single-threaded recovery.
func (d *Driver) RestoreCounters(c Counters) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.FabricBuilds = d.counters.FabricBuilds
	d.counters = c
}

// SolveStats reports the previous step's incremental effort: how many
// components — tenants connected through contended links — were
// re-solved out of how many the shard holds. Under FullRecompute solved
// always equals components.
func (d *Driver) SolveStats() (solved, components int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastSolved, d.lastComps
}

// Step runs one control period: GP re-partitions every dirty tenant's
// guarantees over its active flows, RA computes work-conserving
// targets, limiters move alpha of the way toward them, and the
// achieved rates are reported per tenant — with clean components
// spliced from cache instead of re-solved.
func (d *Driver) Step() (*StepStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, _, err := d.stepLocked()
	return st, err
}

// Converge runs control periods until the enforced rates move by at
// most eps between consecutive periods (maxIters caps the loop; 0
// means 50 iterations and eps 0 means 1e-6). It returns the final
// period's stats and the number of periods run.
func (d *Driver) Converge(maxIters int, eps float64) (*StepStats, int, error) {
	if maxIters <= 0 {
		maxIters = 50
	}
	if eps <= 0 {
		eps = 1e-6
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var prev []float64
	havePrev := false
	for it := 1; ; it++ {
		st, rates, err := d.stepLocked()
		if err != nil {
			return nil, it, err
		}
		if havePrev && len(prev) == len(rates) {
			worst := 0.0
			for i := range rates {
				if delta := math.Abs(rates[i] - prev[i]); delta > worst {
					worst = delta
				}
			}
			if worst <= eps {
				return st, it, nil
			}
		}
		if it == maxIters {
			return st, it, nil
		}
		prev = append(prev[:0], rates...)
		havePrev = true
	}
}

// stepLocked is the control period body; the caller holds d.mu. It
// returns the stats and the enforced-pair achieved rates in global
// (admission, demand) order — driver-owned scratch for convergence
// detection, valid until the next step.
func (d *Driver) stepLocked() (*StepStats, []float64, error) {
	if d.err != nil {
		return nil, nil, d.err
	}

	// 1. Materialize flow state for tenants whose demands or binding
	// changed, then rebuild the component structure if membership could
	// have moved.
	for _, key := range d.order {
		if t := d.tenants[key]; t.flowsDirty {
			d.refreshFlows(t)
		}
	}
	if d.structureDirty {
		d.rebuildComponents()
		d.structureDirty = false
	}

	// 2. Decide which components to solve: any member dirtied by an
	// event or demand change, any member whose limiters have not
	// reached their fixed point — or everything under FullRecompute.
	d.solveSet = d.solveSet[:0]
	for ci := range d.comps {
		c := &d.comps[ci]
		need := d.cfg.FullRecompute
		for _, key := range c.members {
			t := d.tenants[key]
			if t.dirty || !t.settled {
				need = true
				break
			}
		}
		if need {
			d.solveSet = append(d.solveSet, ci)
		}
	}
	d.lastSolved, d.lastComps = len(d.solveSet), len(d.comps)

	// 3. Solve dirty components in parallel. Components are disjoint
	// tenant sets (two may cross the same slack link, but a solve only
	// reads its capacity), every goroutine works on pooled scratch, and
	// shared state (fabric, order) is read-only, so results are
	// independent of scheduling; the fold below runs in component order.
	err := parallel.ForEach(parallel.Workers(0), len(d.solveSet), func(i int) error {
		ctx := d.pool.Get().(*solveCtx)
		defer d.pool.Put(ctx)
		return d.solveComponent(ctx, &d.comps[d.solveSet[i]])
	})
	if err != nil {
		if errors.Is(err, netem.ErrBadInput) {
			return nil, nil, place.Reject("enforce", place.ReasonInvalidRequest, err)
		}
		return nil, nil, err
	}

	// 4. Gather: splice per-tenant caches (freshly solved or carried)
	// into the step report, in admission order.
	st := &StepStats{Tenants: make([]TenantStats, len(d.order)), MinRatio: 1}
	npairs := 0
	for _, key := range d.order {
		npairs += len(d.tenants[key].demands)
	}
	// Every tenant's Pairs is carved out of caller-owned blocks sized
	// from the known total: a few allocations per period, none grown by
	// append. Blocks stay within the allocator's 32 KiB small-object
	// classes — one fleet-sized slab per period is a large object, and
	// at a thousand periods a second those are not recycled fast enough
	// to keep peak RSS flat.
	const pairBlock = 680 // × 48 B per PairStats
	var pairs []PairStats
	d.allRates = d.allRates[:0]
	for i, key := range d.order {
		t := d.tenants[key]
		ts := &st.Tenants[i]
		*ts = TenantStats{Key: t.key, ID: t.id, MinRatio: 1}
		if len(pairs)+len(t.demands) > cap(pairs) {
			pairs = make([]PairStats, 0, max(min(pairBlock, npairs), len(t.demands)))
		}
		npairs -= len(t.demands) // pairs still to place after this tenant
		lo := len(pairs)
		for di, dm := range t.demands {
			ps := PairStats{Src: dm.Src, Dst: dm.Dst, Demand: dm.Mbps}
			if pi := t.pairIdx[di]; pi < 0 {
				ps.Colocated = true
				ps.Rate = dm.Mbps // intra-server: full demand, unenforced
				st.Colocated++
			} else {
				ps.Guarantee = t.guarantees[pi]
				ps.Rate = t.rates[pi]
				ts.GuaranteedMbps += ps.Guarantee
				ts.AchievedMbps += ps.Rate
				base := math.Min(ps.Demand, ps.Guarantee)
				ts.BaseMbps += base
				if base > 0 {
					if ratio := ps.Rate / base; ratio < ts.MinRatio {
						ts.MinRatio = ratio
					}
				}
				st.Pairs++
				d.allRates = append(d.allRates, ps.Rate)
			}
			pairs = append(pairs, ps)
		}
		if len(pairs) > lo {
			ts.Pairs = pairs[lo:len(pairs):len(pairs)]
		}
	}
	for i := range st.Tenants {
		ts := &st.Tenants[i]
		ts.SpareMbps = ts.AchievedMbps - ts.BaseMbps
		st.GuaranteedMbps += ts.GuaranteedMbps
		st.BaseMbps += ts.BaseMbps
		st.AchievedMbps += ts.AchievedMbps
		st.SpareMbps += ts.SpareMbps
		if ts.MinRatio < st.MinRatio {
			st.MinRatio = ts.MinRatio
		}
	}
	return st, d.allRates, nil
}
