package guarantee

import (
	"cloudmirror/internal/cluster"
	"cloudmirror/internal/dataplane"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// config collects the functional options New folds together. The zero
// value plus defaults() is a valid single-shard CloudMirror service.
type config struct {
	shards    int
	policy    string
	seed      int64
	workers   int
	algorithm string
	newPlacer func(*topology.Tree) place.Placer
	modelFor  func(*tag.Graph) place.Model
	enforce   *EnforcementConfig
	walDir    string
	snapEvery int
	noIndex   bool
}

// Option configures a Service under construction. Options validate at
// New time: a bad value fails construction with a typed
// InvalidRequest rejection rather than misbehaving later.
type Option func(*config)

// WithShards sets the number of independent datacenter trees behind
// the dispatcher (default 1). Shards share nothing, so admissions on
// different shards proceed fully in parallel.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithPolicy names the dispatch policy routing requests across shards:
// "rr" (round-robin, the default), "least" (least-loaded), or "p2c"
// (power-of-two-choices).
func WithPolicy(name string) Option { return func(c *config) { c.policy = name } }

// WithSeed seeds the randomized dispatch policies ("p2c"); equal seeds
// give identical pick sequences. Defaults to 1.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers bounds the goroutines used for shard construction (0,
// the default, uses all cores). It never changes the built service.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithAlgorithm selects the placement algorithm (and its bandwidth
// model) by name — see Algorithms for the registry. The default is
// "cm", the CloudMirror placer under the TAG model.
func WithAlgorithm(name string) Option {
	return func(c *config) {
		c.algorithm = name
		c.newPlacer = nil // name wins over a previously set constructor
	}
}

// WithPlacer installs a custom placement-algorithm constructor, one
// instance per shard tree. It
// overrides WithAlgorithm; the service's model defaults to the
// tenant's TAG unless WithModelFor is also given.
func WithPlacer(newPlacer func(*topology.Tree) place.Placer) Option {
	return func(c *config) {
		c.newPlacer = newPlacer
		c.algorithm = ""
	}
}

// WithModelFor installs the translation from a tenant's TAG to the
// bandwidth model used for admission and reservation (VOC, pipes).
// Nil, the default, prices tenants by their TAG directly. Only
// meaningful with WithPlacer; WithAlgorithm names carry their model.
func WithModelFor(modelFor func(*tag.Graph) place.Model) Option {
	return func(c *config) { c.modelFor = modelFor }
}

// EnforcementConfig tunes the enforcement dataplane WithEnforcement
// attaches. The zero value is valid: rate limiters jump straight to
// their targets (alpha 1) under TAG partitioning.
type EnforcementConfig struct {
	// Alpha is the per-period convergence step of each rate limiter
	// toward its target, in (0,1]; 0 means 1 (jump immediately).
	Alpha float64
	// Partitioner names the guarantee-partitioning scheme: "tag" (the
	// default), "hose" (single-hose baseline), or "gatekeeper" (§2.2
	// baseline).
	Partitioner string
	// FullRecompute disables incremental (component-dirty) enforcement
	// stepping: every control period re-solves every connected
	// component. The escape hatch exists for debugging and for the
	// differential tests proving the incremental path equivalent; both
	// modes produce byte-identical step reports.
	FullRecompute bool
}

// WithEnforcement attaches a per-shard enforcement dataplane to the
// service: every Grant lifecycle transition (admit, resize, release)
// is applied to it incrementally, and Service.Enforcement exposes the
// GP/RA control loop and its stats. Tenants admitted under a
// translated model (VOC, pipes) are skipped — only TAG-priced tenants
// carry the guarantees the dataplane partitions.
func WithEnforcement(cfg EnforcementConfig) Option {
	return func(c *config) { c.enforce = &cfg }
}

// WithDurability makes the service durable: every Grant lifecycle
// transition is appended to a write-ahead log under dir (fsynced
// before the operation returns), and periodic snapshots truncate the
// log. After a crash, Open(dir) rebuilds the exact admission state.
// The directory must not already hold a ledger — recovering one is
// Open's job, not New's. Durable services serialize lifecycle
// operations on one lock so the log order equals the commit order.
func WithDurability(dir string) Option { return func(c *config) { c.walDir = dir } }

// WithSnapshotEvery sets how many logged events accumulate before the
// service writes a snapshot and truncates the log (default 1024).
// Only meaningful with WithDurability.
func WithSnapshotEvery(n int) Option { return func(c *config) { c.snapEvery = n } }

// WithIndex enables or disables the topology free-capacity index
// (default on). The index prunes provably hopeless feasibility scans
// and never changes admission decisions — disabling it restores the
// pure rescan hot path, which exists for the differential harness and
// as an escape hatch, not for production use.
func WithIndex(on bool) Option { return func(c *config) { c.noIndex = !on } }

// New builds a Service over n identical shards of the given topology:
// the one public constructor behind which the shard fleet, the dispatch
// policy, and the algorithm registry all hide. Invalid options fail
// with a typed InvalidRequest rejection naming the valid values.
func New(spec topology.Spec, opts ...Option) (Service, error) {
	c := config{shards: 1, policy: "rr", seed: 1, algorithm: "cm", snapEvery: defaultSnapshotEvery}
	for _, opt := range opts {
		opt(&c)
	}
	svc, err := build(spec, &c)
	if err != nil {
		return nil, err
	}
	if c.walDir != "" {
		if err := createDurability(spec, &c, svc); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// build assembles the shard fleet, dispatcher, and enforcement plane
// from a folded config — the construction path New and Open share.
func build(spec topology.Spec, c *config) (*service, error) {
	const op = "configure"
	if c.shards < 1 {
		return nil, place.Rejectf(op, InvalidRequest, "invalid shards %d: need an integer >= 1", c.shards)
	}
	if c.snapEvery < 1 {
		return nil, place.Rejectf(op, InvalidRequest,
			"invalid snapshot interval %d: need an integer >= 1", c.snapEvery)
	}
	if c.policy == "" {
		c.policy = "rr"
	}
	pol, err := cluster.NewPolicy(c.policy, c.seed)
	if err != nil {
		return nil, place.Reject(op, InvalidRequest, err)
	}
	name := c.algorithm
	newPlacer, modelFor := c.newPlacer, c.modelFor
	if newPlacer == nil {
		alg, err := AlgorithmByName(c.algorithm)
		if err != nil {
			return nil, err
		}
		newPlacer, modelFor = alg.NewPlacer, alg.ModelFor
	}
	cl, err := cluster.New(spec, c.shards, newPlacer, c.workers)
	if err != nil {
		return nil, place.Reject(op, InvalidRequest, err)
	}
	if c.noIndex {
		for i := 0; i < cl.Size(); i++ {
			cl.Shard(i).SetIndexed(false)
		}
	}
	if name == "" {
		name = cl.Shard(0).Name()
	}
	var enf *Enforcement
	if c.enforce != nil {
		dcfg := dataplane.Config{
			Alpha:         c.enforce.Alpha,
			Partitioner:   c.enforce.Partitioner,
			FullRecompute: c.enforce.FullRecompute,
		}
		drivers := make([]*dataplane.Driver, cl.Size())
		for i := range drivers {
			drv, derr := dataplane.New(cl.Shard(i).Tree(), dcfg)
			if derr != nil {
				return nil, derr
			}
			cl.Shard(i).SetSink(drv)
			drivers[i] = drv
		}
		enf = &Enforcement{drivers: drivers}
	}
	return &service{
		cl:       cl,
		disp:     cluster.NewDispatcher(cl, pol),
		name:     name,
		modelFor: modelFor,
		enf:      enf,
	}, nil
}

// defaultSnapshotEvery is the WithSnapshotEvery default: how many
// logged events accumulate before an automatic snapshot.
const defaultSnapshotEvery = 1024
