package guarantee

import (
	"cloudmirror/internal/cluster"
	"cloudmirror/internal/dataplane"
	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/topology"
)

// config collects the functional options New folds together. The zero
// value plus defaults() is a valid single-shard CloudMirror service.
type config struct {
	shards    int
	policy    string
	seed      int64
	workers   int
	newPlacer func(*topology.Tree) place.Placer
	enforce   *EnforcementConfig
	walDir    string
	snapEvery int
}

// defaultAlgorithm names the CloudMirror placer: what Name reports
// unless WithPlacer replaced it, and what every durable ledger records.
const defaultAlgorithm = "cm"

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

// WithPlacer replaces the CloudMirror placer with a custom constructor,
// one instance per shard tree — a wrapper that instruments the placer,
// or a CloudMirror variant. Tenants are still priced by their TAG.
// Durable services refuse it: a ledger records only the default placer.
func WithPlacer(newPlacer func(*topology.Tree) place.Placer) Option {
	return func(c *config) { c.newPlacer = newPlacer }
}

// EnforcementConfig tunes the enforcement dataplane WithEnforcement
// attaches: the rate limiters' convergence step (Alpha). Guarantees are
// always partitioned per TAG hose. The zero value is valid: rate
// limiters jump straight to their targets (alpha 1).
type EnforcementConfig = dataplane.Config

// WithEnforcement attaches a per-shard enforcement dataplane to the
// service: every Grant lifecycle transition (admit, resize, release)
// is applied to it incrementally, and Service.Enforcement exposes the
// GP/RA control loop and its stats.
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

// New builds a Service over n identical shards of the given topology:
// the one public constructor behind which the shard fleet, the dispatch
// policy, and the CloudMirror placer all hide. Invalid options fail
// with a typed InvalidRequest rejection naming the valid values.
func New(spec topology.Spec, opts ...Option) (Service, error) {
	c := config{shards: 1, policy: "rr", seed: 1, snapEvery: defaultSnapshotEvery}
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
	name, newPlacer := defaultAlgorithm, c.newPlacer
	if newPlacer == nil {
		newPlacer = func(t *topology.Tree) place.Placer { return cloudmirror.New(t) }
	}
	cl, err := cluster.New(spec, c.shards, newPlacer, c.workers)
	if err != nil {
		return nil, place.Reject(op, InvalidRequest, err)
	}
	if c.newPlacer != nil {
		name = cl.Shard(0).Name()
	}
	var enf *Enforcement
	if c.enforce != nil {
		drivers := make([]*dataplane.Driver, cl.Size())
		for i := range drivers {
			drv, derr := dataplane.New(cl.Shard(i).Tree(), *c.enforce)
			if derr != nil {
				return nil, derr
			}
			cl.Shard(i).SetSink(drv)
			drivers[i] = drv
		}
		enf = &Enforcement{drivers: drivers}
	}
	return &service{
		cl:   cl,
		disp: cluster.NewDispatcher(cl, pol),
		name: name,
		enf:  enf,
	}, nil
}

// defaultSnapshotEvery is the WithSnapshotEvery default: how many
// logged events accumulate before an automatic snapshot.
const defaultSnapshotEvery = 1024
