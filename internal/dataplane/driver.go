package dataplane

import (
	"errors"
	"math"
	"slices"
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
// itself, plus everything a control period would otherwise recompute
// for a tenant nothing happened to — flow paths, its share of every
// link's declared load, the last solve's outcome, and the aggregates
// the step report copies.
type tenant struct {
	key, id int64
	// pos is the tenant's index in Driver.order (and Driver.stats): its
	// admission rank among the live tenants, the order link loads and
	// reports fold in. A release renumbers the tenants behind it.
	pos   int
	graph *tag.Graph
	bind  *Binding
	gp    enforce.Partitioner
	// demands are the tenant's active flows, sorted by (Src, Dst); nil
	// means "not set" and defaults, lazily, to every TAG-permitted pair
	// backlogged. perm remembers the caller's order: the i-th entry of
	// the last accepted declaration is demands[perm[i]]. It is always a
	// permutation of [0, len(perm)), which is all SetDemand relies on.
	demands []Demand
	perm    []int32

	// queued marks a tenant on Driver.changed: its declaration moved
	// since the last period, which will re-derive what depends on it.
	queued bool

	// Derived flow state, rebuilt by refreshFlows when flowsDirty:
	// pairIdx maps each demand to its index in the enforced-pair lists
	// (-1 for colocated pairs, which never cross the fabric), links is
	// the sorted, deduplicated set of fabric links the tenant's paths
	// touch, and loads (parallel to links) is the tenant's contribution
	// to each link's declared load: Σ Demand over its pairs crossing the
	// link, in pair order.
	flowsDirty bool
	pairIdx    []int32
	pairs      []enforce.Pair // tenant-local VM IDs
	paths      [][]netem.LinkID
	links      []netem.LinkID
	loads      []float64

	// Solve caches, one entry per enforced pair: the GP guarantees of the
	// current pair set (partitioned by refreshFlows, not per solve), the
	// current limiter values (NaN marks a pair the limiter has not seen,
	// which starts at its guarantee), and the last achieved rates, empty
	// until a solve has seen the current flow state — which is what keeps
	// Pairs off guarantees no period has reported. dirty asks for a solve;
	// settled marks a component at its limiters' fixed point, where
	// re-solving is provably a no-op (see solveComponent). The report
	// aggregates folded from these caches live in Driver.stats.
	dirty      bool
	settled    bool
	guarantees []float64
	limits     []float64
	rates      []float64

	// comp is the component id assigned by the last structure rebuild;
	// -1 before the first. The rebuild uses it to detect components
	// whose membership is unchanged, which may keep their settled state.
	comp int
}

// PairStats reports one declared flow of a tenant (Driver.Pairs).
type PairStats struct {
	// Src and Dst are tenant-local VM IDs.
	Src, Dst int
	// Guarantee is the GP-assigned pair guarantee, Mbps, as of the last
	// control period that solved the pair (0 before one has, and for
	// colocated pairs, which never cross the fabric).
	Guarantee float64
	// Demand is the offered load as currently declared (possibly
	// netem.Greedy).
	Demand float64
	// Rate is the rate achieved in the last control period that solved
	// the pair, 0 before one has. Colocated pairs achieve their full
	// demand (intra-server traffic is not enforced).
	Rate float64
	// Colocated marks intra-server pairs, excluded from enforcement
	// and from the aggregate sums.
	Colocated bool
}

// TenantStats aggregates one tenant's step outcome. Sums and ratios
// cover enforced (fabric-crossing) pairs only, folded in pair order
// when the tenant's component was last solved; a tenant whose component
// a period skips reports the values of that solve, which are the values
// re-solving would produce. Per-pair detail is not part of a report:
// ask Driver.Pairs.
type TenantStats struct {
	// Key is the grant key; ID the caller-chosen tenant ID.
	Key, ID int64
	// Pairs counts the tenant's enforced (fabric-crossing) flows;
	// Colocated its intra-server flows, excluded from enforcement.
	Pairs, Colocated int
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

// StepStats reports one control period over the whole shard: per-tenant
// and shard-wide aggregates, no per-pair rows (Driver.Pairs serves
// those on demand). The report is the caller's: the driver keeps no
// reference to it.
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
	// Components counts this period's components — tenants connected
	// through contended links — and Solved how many of them it
	// re-solved; the rest were at their fixed point and report cached
	// outcomes.
	Solved, Components int
}

// Driver is one shard's enforcement plane: it consumes Grant lifecycle
// events (implementing place.EventSink) to maintain per-tenant
// deployments, bindings, and flow paths incrementally, and runs the
// GP/RA control loop over the shared fabric.
//
// A control period costs what changed, not what exists. Weighted
// max-min couples flows only through links that can saturate, so the
// driver tracks which tenants are connected through contended links —
// links whose declared load, Σ Demand over the enforced pairs crossing
// them, can reach capacity (see components.go) — and a period
//
//   - re-derives flow state and load contributions of the tenants whose
//     declaration changed — paths, links and the GP guarantees only for
//     those that named a new pair set — and refolds the declared load of
//     the links those tenants cross;
//   - rebuilds the component structure only after a membership event
//     (admit, resize, release, a new pair set) or when a refolded link
//     changed sides of the contended threshold — otherwise the structure
//     already built is provably the current one;
//   - re-solves only components holding a changed tenant or limiters
//     that have not reached their fixed point — RA, the limiter step and
//     the achieved rates over the kept guarantees — in parallel, folding
//     results in deterministic component order;
//   - reports per-tenant aggregates cached at solve time. Per-pair
//     detail is served on demand (Pairs), never materialised per period.
//
// Tenants that merely cross the same slack link stay in separate
// components; undeclared and Greedy flows make every link on their path
// contended, which is the purely structural decomposition.
// Config.FullRecompute re-solves every component every period; both
// modes produce byte-identical transcripts, and either agrees with one
// whole-fabric solve to 1e-6 Mbps per pair. All methods are safe for
// concurrent use.
type Driver struct {
	mu      sync.Mutex
	fab     *Fabric
	fabCaps []float64
	cfg     Config

	// tenants indexes the enforced tenants by grant key; order lists
	// them in admission order, and stats, parallel to it, holds each
	// one's report aggregates as of its last solve — one contiguous
	// block, so a report is a copy of it. changed queues the tenants
	// whose declaration moved since the last period (tenant.queued).
	tenants map[int64]*tenant
	order   []*tenant
	stats   []TenantStats
	changed []*tenant

	// Declared link loads, kept across periods (see components.go), all
	// indexed by LinkID: linkLoad is each link's load, linkTenants the
	// tenants crossing it in admission order, and stale/staleLinks mark
	// the links whose load must be refolded before the next period
	// reads it. loadScratch is foldLoads' accumulator.
	linkLoad    []float64
	linkTenants [][]linkRef
	stale       []bool
	staleLinks  []netem.LinkID
	loadScratch []float64

	// Component structure (see components.go). structureDirty forces a
	// union-find rebuild at the next step. The rest is the rebuild's
	// scratch: each link's first owner (indexed by LinkID), union-find
	// parents and the root→component map (indexed by position in order),
	// and the previous rebuild's component sizes.
	structureDirty bool
	comps          []component
	compSizes      []int
	prevSizes      []int
	ufParent       []int32
	compOf         []int32
	linkOwner      []int32

	// Step scratch and the pooled per-goroutine solve contexts; byPair is
	// SetDemand's sort scratch, oldPairs/oldLimits refreshFlows' copy of
	// the flow state it replaces.
	solveSet  []int
	pool      sync.Pool
	byPair    []int32
	oldPairs  []enforce.Pair
	oldLimits []float64

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
	links := fab.Network().Links()
	caps := make([]float64, links)
	for l := range caps {
		caps[l] = fab.Network().Capacity(netem.LinkID(l))
	}
	d := &Driver{
		fab:         fab,
		fabCaps:     caps,
		cfg:         cfg,
		tenants:     make(map[int64]*tenant),
		linkLoad:    make([]float64, links),
		linkTenants: make([][]linkRef, links),
		stale:       make([]bool, links),
		loadScratch: make([]float64, links),
		linkOwner:   make([]int32, links),
		counters:    Counters{FabricBuilds: 1},
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
		t, ok := d.tenants[ev.Key]
		if !ok {
			return
		}
		delete(d.tenants, ev.Key)
		d.order = slices.Delete(d.order, t.pos, t.pos+1)
		d.stats = slices.Delete(d.stats, t.pos, t.pos+1)
		for i := t.pos; i < len(d.order); i++ {
			d.order[i].pos = i
		}
		if t.queued {
			d.changed = slices.DeleteFunc(d.changed, func(o *tenant) bool { return o == t })
		}
		// The departed tenant's load leaves its links and its capacity is
		// freed; its former co-members re-solve (the rebuild sees their
		// component shrink).
		d.unlink(t)
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
		t = &tenant{key: ev.Key, id: ev.ID, pos: len(d.order), comp: -1}
		d.tenants[ev.Key] = t
		d.order = append(d.order, t)
		d.stats = append(d.stats, TenantStats{})
	}
	t.graph, t.bind, t.gp = ev.Graph, bind, d.cfg.newPartitioner(bind.Deployment())
	t.demands = nil // VM IDs changed; offered loads must be re-declared
	// The VM set changed: flow state and limiter values are meaningless
	// under the new binding. Pairs restart at their guarantees.
	t.pairs = t.pairs[:0]
	t.limits = t.limits[:0]
	d.redeclared(t, true)
	return true
}

// redeclared queues a tenant whose declaration changed for the next
// period: its component re-solves, and its link loads — with newFlows,
// its whole flow state — are re-derived first.
func (d *Driver) redeclared(t *tenant, newFlows bool) {
	t.dirty = true
	if newFlows {
		t.flowsDirty = true
	}
	if !t.queued {
		t.queued = true
		d.changed = append(d.changed, t)
	}
}

// SetDemand declares a tenant's active flows (replacing any previous
// declaration) for subsequent control periods. Demands are tenant-local
// VM pairs; a resize resets them to the backlogged default, so callers
// re-declare after resizing. An empty declaration, nil included, means
// no active flows — an idle tenant, not the default. Unknown keys and
// malformed entries fail with a typed InvalidRequest rejection and
// change nothing.
//
// A declaration over the pairs the tenant already has only updates
// offered loads: if none moved (by bits) it is a no-op and does not dirty
// the tenant's component; otherwise the component re-solves without
// rebuilding flow state (the loads of the links the tenant crosses are
// refolded: they decide which links are contended). One that lists those
// pairs in the order of the tenant's last declaration — the shape of a
// caller refreshing its loads every period — is recognised entry by
// entry, without a copy or a sort. A pair may appear at most once.
func (d *Driver) SetDemand(key int64, demands []Demand) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[key]
	if !ok {
		return place.Rejectf("enforce", place.ReasonInvalidRequest,
			"no tenant with key %d under enforcement", key)
	}
	vms := t.bind.VMs()
	for _, dm := range demands {
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

	if !t.declaresCurrentPairs(demands) {
		// Not the remembered order: sort the entries by pair, reject a
		// repeated one, and remember this order instead.
		d.byPair = d.byPair[:0]
		for i := range demands {
			d.byPair = append(d.byPair, int32(i))
		}
		slices.SortFunc(d.byPair, func(a, b int32) int {
			if demands[a].Src != demands[b].Src {
				return demands[a].Src - demands[b].Src
			}
			return demands[a].Dst - demands[b].Dst
		})
		for k := 1; k < len(d.byPair); k++ {
			if a, b := demands[d.byPair[k-1]], demands[d.byPair[k]]; a.Src == b.Src && a.Dst == b.Dst {
				return place.Rejectf("enforce", place.ReasonInvalidRequest,
					"demand pair (%d,%d) declared twice", b.Src, b.Dst)
			}
		}
		t.perm = append(t.perm[:0], d.byPair...)
		for k, i := range d.byPair {
			t.perm[i] = int32(k)
		}
		if !t.declaresCurrentPairs(demands) {
			// A new pair set rebuilds the tenant's flow state. Never nil,
			// even for an empty declaration: nil demands mean "not
			// declared" (the backlogged default), empty ones an idle tenant.
			t.demands = make([]Demand, len(demands))
			for k, i := range d.byPair {
				t.demands[k] = demands[i]
			}
			d.redeclared(t, true)
			return nil
		}
	}
	d.setLoads(t, demands)
	return nil
}

// declaresCurrentPairs reports whether a declaration names exactly the
// pairs the tenant's flow state was built from, its i-th entry being
// demands[perm[i]]. perm is a permutation and demands holds no pair
// twice, so an entry-by-entry match proves the declaration is the same
// pair set with no pair repeated.
func (t *tenant) declaresCurrentPairs(ds []Demand) bool {
	if t.demands == nil || t.flowsDirty || len(ds) != len(t.demands) || len(ds) != len(t.perm) {
		return false
	}
	for i, dm := range ds {
		if cur := &t.demands[t.perm[i]]; cur.Src != dm.Src || cur.Dst != dm.Dst {
			return false
		}
	}
	return true
}

// setLoads takes the offered loads of a declaration over the tenant's
// current pairs, in the remembered order. Paths and links are untouched;
// a verbatim redeclaration changes nothing and dirties nothing.
func (d *Driver) setLoads(t *tenant, ds []Demand) {
	moved := false
	for i, dm := range ds {
		di := t.perm[i]
		if math.Float64bits(dm.Mbps) == math.Float64bits(t.demands[di].Mbps) {
			continue
		}
		moved = true
		t.demands[di].Mbps = dm.Mbps
		if pi := t.pairIdx[di]; pi >= 0 {
			t.pairs[pi].Demand = dm.Mbps
		}
	}
	if moved {
		d.redeclared(t, false)
	}
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

// Pairs reports one tenant's flows, one row per declared demand in
// (Src, Dst) order — the per-pair detail a step report leaves out, read
// from the same caches the report's aggregates were folded from.
//
// Right after a control period the rows are that period's outcome. In
// between they are the declaration as it stands: Demand (and the set of
// rows) follows SetDemand and resizes at once, while Guarantee and Rate
// stay those of the last period that solved the pair — zero once the
// tenant's pair set or placement has changed, until the next period
// solves the new flows. An undeclared tenant reports the backlogged
// default. The slice is the caller's. Unknown keys fail with a typed
// InvalidRequest rejection.
func (d *Driver) Pairs(key int64) ([]PairStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[key]
	if !ok {
		return nil, place.Rejectf("enforce", place.ReasonInvalidRequest,
			"no tenant with key %d under enforcement", key)
	}
	demands := t.demands
	if demands == nil {
		demands = defaultDemands(t.bind.Deployment())
	}
	out := make([]PairStats, len(demands))
	for di, dm := range demands {
		ps := PairStats{Src: dm.Src, Dst: dm.Dst, Demand: dm.Mbps}
		if t.flowsDirty {
			// No period has seen these flows: pairIdx and the solve
			// caches describe the previous declaration.
			ps.Colocated = t.bind.Server(dm.Src) == t.bind.Server(dm.Dst)
		} else if pi := int(t.pairIdx[di]); pi < 0 {
			ps.Colocated = true
		} else if pi < len(t.rates) {
			ps.Guarantee, ps.Rate = t.guarantees[pi], t.rates[pi]
		}
		if ps.Colocated {
			ps.Rate = dm.Mbps // intra-server: full demand, unenforced
		}
		out[di] = ps
	}
	return out, nil
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

// SolveStats reports the most recent control period's incremental
// effort: how many components — tenants connected through contended
// links — it re-solved out of how many the shard holds. Under
// FullRecompute solved always equals components. A caller that needs
// the numbers of one particular period reads them from that period's
// report (StepStats.Solved, StepStats.Components): with concurrent
// steppers, this accessor may already describe a later one.
func (d *Driver) SolveStats() (solved, components int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastSolved, d.lastComps
}

// Step runs one control period: GP re-partitions the guarantees of
// every tenant that declared a new pair set over its active flows, RA
// computes work-conserving targets for the components that changed,
// limiters move alpha of the way toward them, and the achieved rates
// are reported per tenant — components at their fixed point are skipped
// and report their cached outcome.
func (d *Driver) Step() (*StepStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.advance(); err != nil {
		return nil, err
	}
	return d.report(), nil
}

// Converge runs control periods until the enforced rates move by at
// most eps between consecutive periods (maxIters caps the loop; 0
// means 50 iterations and eps 0 means 1e-6). It returns the final
// period's stats and the number of periods run; at least two run
// unless maxIters is 1, since the first has nothing to compare with.
func (d *Driver) Converge(maxIters int, eps float64) (*StepStats, int, error) {
	if maxIters <= 0 {
		maxIters = 50
	}
	if eps <= 0 {
		eps = 1e-6
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for it := 1; ; it++ {
		moved, err := d.advance()
		if err != nil {
			return nil, it, err
		}
		if (it > 1 && moved <= eps) || it == maxIters {
			return d.report(), it, nil
		}
	}
}

// advance is the control period body up to the report; the caller holds
// d.mu. It returns the largest change of any enforced pair's achieved
// rate against the previous period: +Inf when a solved tenant's flows
// are new this period, and exactly 0 when every component was skipped —
// a skipped component's rates are the ones it already had.
func (d *Driver) advance() (float64, error) {
	if d.err != nil {
		return 0, d.err
	}

	// 1. Bring the component structure up to date with the declarations
	// that changed.
	d.prepare()

	// 2. Decide which components to solve: any member dirtied by an
	// event or demand change, any member whose limiters have not
	// reached their fixed point — or everything under FullRecompute.
	d.solveSet = d.solveSet[:0]
	for ci := range d.comps {
		need := d.cfg.FullRecompute
		for _, t := range d.comps[ci].members {
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
	// independent of scheduling, and so is the largest of them.
	moves, err := parallel.Map(parallel.Workers(0), len(d.solveSet), func(i int) (float64, error) {
		ctx := d.pool.Get().(*solveCtx)
		defer d.pool.Put(ctx)
		return d.solveComponent(ctx, &d.comps[d.solveSet[i]])
	})
	if err != nil {
		if errors.Is(err, netem.ErrBadInput) {
			return 0, place.Reject("enforce", place.ReasonInvalidRequest, err)
		}
		return 0, err
	}
	moved := 0.0
	for _, m := range moves {
		if m > moved {
			moved = m
		}
	}
	return moved, nil
}

// report gathers the period's outcome from the per-tenant aggregates
// cached at solve time, in admission order: the same sums in the same
// order whether a tenant was solved this period or long ago. The
// caller holds d.mu and owns the result.
func (d *Driver) report() *StepStats {
	st := &StepStats{
		Tenants:    slices.Clone(d.stats),
		MinRatio:   1,
		Solved:     d.lastSolved,
		Components: d.lastComps,
	}
	for i := range st.Tenants {
		ts := &st.Tenants[i]
		st.Pairs += ts.Pairs
		st.Colocated += ts.Colocated
		st.GuaranteedMbps += ts.GuaranteedMbps
		st.BaseMbps += ts.BaseMbps
		st.AchievedMbps += ts.AchievedMbps
		st.SpareMbps += ts.SpareMbps
		if ts.MinRatio < st.MinRatio {
			st.MinRatio = ts.MinRatio
		}
	}
	return st
}
