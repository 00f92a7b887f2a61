package guarantee

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"cloudmirror/internal/cluster"
	"cloudmirror/internal/dataplane"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/wal"
)

// Durable control plane: a write-ahead log of Grant lifecycle events
// plus periodic ledger snapshots. Every admit, resize, and release is
// appended (and fsynced) to the log before the operation returns, so a
// crash loses nothing that was acknowledged; Open rebuilds the exact
// admission state — ledger bits, gauges, counters, placer demand
// estimators, dispatch-policy state, and enforcement dataplanes — by
// importing the latest snapshot and replaying the log suffix through
// the same commit paths live operations use.
//
// Exactness caveat: the log records operations in append order, which
// equals commit order because a durable service serializes the
// commit-and-write step of every lifecycle operation on the Durability
// lock. The fsync is NOT under that lock: each operation writes its
// record, releases the lock, and joins a committer-side flush barrier
// where the first waiter through fsyncs on behalf of everyone queued —
// N concurrent durable admits pay one fsync, not N (group commit). An
// operation acknowledges only after the barrier covers its record, so
// a crash still loses nothing that was acknowledged, and the reward is
// unchanged: byte-identical recovery (including float residue in every
// ledger accumulator — see internal/place replay).

// snapshotVersion tags the snapshot JSON format.
const snapshotVersion = 1

// durableConfig is the construction-time configuration persisted in
// every snapshot, so Open rebuilds the identical service without the
// caller repeating options. Algorithm is always defaultAlgorithm; Open
// refuses a ledger naming any other. Ledgers written by older builds
// may also carry "planners" or the enforcement full-recompute flag;
// encoding/json ignores the unknown fields, so they still open.
type durableConfig struct {
	Shards        int             `json:"shards"`
	Policy        string          `json:"policy"`
	Seed          int64           `json:"seed"`
	Algorithm     string          `json:"algorithm"`
	SnapshotEvery int             `json:"snapshot_every"`
	Enforce       *durableEnforce `json:"enforce,omitempty"`
}

// durableEnforce is the enforcement configuration as a ledger records
// it. Older builds could enforce with a baseline guarantee partitioner
// and recorded its name beside Alpha; "" and "tag" name the TAG
// partitioner, the only one this build runs. Open refuses any other by
// name rather than silently reopening the ledger under the TAG.
type durableEnforce struct {
	EnforcementConfig
	LegacyPartitioner string `json:"Partitioner,omitempty"`
}

// shardSnap is one shard's durable state within a snapshot. The ledger
// arrays and the reserved gauge are captured byte-exactly — both carry
// float residue from the full admission history that cannot be
// reconstructed from the surviving tenants. PlacerStates holds the
// placer's demand estimator as its only element (absent when the placer
// keeps none); snapshots written with planner replicas carry one entry
// per planner, and recovery restores entry 0, the one a single-planner
// writer would have recorded.
type shardSnap struct {
	Ledger       topology.Ledger     `json:"ledger"`
	ReservedMbps float64             `json:"reserved_mbps"`
	Slots        int64               `json:"slots"`
	Tenants      int64               `json:"tenants"`
	Seq          int64               `json:"seq"`
	Stats        place.AdmitStats    `json:"stats"`
	PlacerStates []float64           `json:"placer_states,omitempty"`
	Grants       []place.GrantRecord `json:"grants"`
}

// enforceSnap is the enforcement plane's durable state: the per-driver
// lifecycle counters (rate-limiter state is reconstructed by the next
// control period, not persisted).
type enforceSnap struct {
	Counters []dataplane.Counters `json:"counters"`
}

// snapshotFile is the complete snapshot payload stored by the
// write-ahead log at each generation.
type snapshotFile struct {
	Version  int                   `json:"version"`
	Spec     topology.Spec         `json:"spec"`
	Config   durableConfig         `json:"config"`
	Shards   []shardSnap           `json:"shards"`
	Dispatch cluster.DispatchStats `json:"dispatch"`
	Picks    uint64                `json:"picks"`
	Enforce  *enforceSnap          `json:"enforce,omitempty"`
}

// grantKey addresses one live grant: grant keys are per-shard
// sequences, so only the (shard, key) pair is unique service-wide.
type grantKey struct {
	shard int
	key   int64
}

// WALStats re-exports the write-ahead log's position report so
// consumers of the public API never import the internal wal package.
type WALStats = wal.Stats

// Durability is a durable service's lifecycle-owning handle, returned
// by Service.Durability (nil for services built without
// WithDurability). It owns the write-ahead log, serializes every
// lifecycle operation, and exposes snapshot control and log stats.
type Durability struct {
	mu    sync.Mutex
	log   *wal.Log
	every int
	// flushMu is the group-commit barrier: the holder fsyncs the log on
	// behalf of every record written before it got here (see syncTo).
	// Never nested with mu — operations write under mu, release it,
	// then queue here.
	flushMu sync.Mutex
	// closed latches after Close, abandon, or a log failure; err holds
	// the failure that wedged the service, nil for a clean Close.
	closed bool
	err    error
	svc    *service
	spec   topology.Spec
	cfg    durableConfig
	grants map[grantKey]*grant
}

// HasLedger reports whether dir holds a durable ledger a previous
// service wrote — the discriminator between New (fresh directory) and
// Open (recovery).
func HasLedger(dir string) bool { return wal.HasLedger(dir) }

// createDurability initializes a fresh durable ledger under c.walDir
// for a just-built (still empty) service and attaches the Durability
// to it.
func createDurability(spec topology.Spec, c *config, svc *service) error {
	const op = "configure"
	if c.newPlacer != nil {
		return place.Rejectf(op, Unsupported,
			"WithPlacer constructors cannot be persisted: a durable ledger records only the default %q placer", defaultAlgorithm)
	}
	d := &Durability{
		every: c.snapEvery,
		svc:   svc,
		spec:  spec,
		cfg: durableConfig{
			Shards:        c.shards,
			Policy:        c.policy,
			Seed:          c.seed,
			Algorithm:     defaultAlgorithm,
			SnapshotEvery: c.snapEvery,
		},
		grants: make(map[grantKey]*grant),
	}
	if c.enforce != nil {
		d.cfg.Enforce = &durableEnforce{EnforcementConfig: *c.enforce}
	}
	b, err := d.encodeSnapshot()
	if err != nil {
		return place.Reject(op, InvalidRequest, err)
	}
	log, err := wal.Create(c.walDir, b)
	if err != nil {
		if errors.Is(err, wal.ErrExists) {
			return place.Rejectf(op, InvalidRequest,
				"%s already holds a durable ledger: recover it with Open, not New", c.walDir)
		}
		return place.Reject(op, InvalidRequest, err)
	}
	d.log = log
	svc.dur = d
	return nil
}

// Open recovers a durable Service from the ledger a previous service
// left under dir: it rebuilds the fleet from the persisted
// configuration, imports the latest snapshot, and deterministically
// replays the write-ahead-log suffix through the same commit paths
// live operations use. The recovered admission state is byte-identical
// to the crashed service's. Options may re-supply what cannot persist
// (WithWorkers tuning); structural options are taken from the
// snapshot and cannot be changed here.
func Open(dir string, opts ...Option) (Service, error) {
	const op = "recover"
	log, snapBytes, suffix, err := wal.Open(dir)
	if err != nil {
		return nil, place.Reject(op, InvalidRequest, err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(snapBytes, &snap); err != nil {
		log.Close()
		return nil, place.Rejectf(op, InvalidRequest, "corrupt snapshot in %s: %v", dir, err)
	}
	if snap.Version != snapshotVersion {
		log.Close()
		return nil, place.Rejectf(op, InvalidRequest,
			"snapshot version %d, this build reads %d", snap.Version, snapshotVersion)
	}
	if snap.Config.Algorithm != defaultAlgorithm {
		// Older builds could serve a baseline placer or a CloudMirror
		// variant; recovering its ledger under CloudMirror would replay
		// its decisions through a placer that never made them.
		log.Close()
		return nil, place.Rejectf(op, InvalidRequest,
			"ledger in %s was written by algorithm %q; this build serves only %q",
			dir, snap.Config.Algorithm, defaultAlgorithm)
	}
	c := config{
		shards:    snap.Config.Shards,
		policy:    snap.Config.Policy,
		seed:      snap.Config.Seed,
		snapEvery: snap.Config.SnapshotEvery,
	}
	if e := snap.Config.Enforce; e != nil {
		if e.LegacyPartitioner != "" && e.LegacyPartitioner != "tag" {
			// Recovering a baseline-partitioned ledger under the TAG would
			// enforce guarantees its writer never enforced.
			log.Close()
			return nil, place.Rejectf(op, InvalidRequest,
				"ledger in %s enforces with partitioner %q; this build enforces only the TAG", dir, e.LegacyPartitioner)
		}
		c.enforce = &e.EnforcementConfig
	}
	// Fold caller options for the non-persistable knobs, then reassert
	// the snapshot's structural configuration — a recovered fleet must
	// match the one that wrote the ledger.
	tune := config{}
	for _, opt := range opts {
		opt(&tune)
	}
	c.workers = tune.workers
	svc, err := build(snap.Spec, &c)
	if err != nil {
		log.Close()
		return nil, err
	}
	d := &Durability{
		log:    log,
		every:  c.snapEvery,
		svc:    svc,
		spec:   snap.Spec,
		cfg:    snap.Config,
		grants: make(map[grantKey]*grant),
	}
	if err := d.recover(&snap, suffix); err != nil {
		log.Close()
		return nil, place.Reject(op, InvalidRequest, err)
	}
	svc.dur = d
	return svc, nil
}

// recover rebuilds the service's state from the snapshot plus the log
// suffix. Single-threaded: the service is not yet published.
func (d *Durability) recover(snap *snapshotFile, suffix [][]byte) error {
	svc := d.svc
	n := svc.cl.Size()
	if len(snap.Shards) != n {
		return fmt.Errorf("snapshot has %d shards, fleet has %d", len(snap.Shards), n)
	}
	// 1. Ledger bits first: everything below replays on top of them.
	for i := 0; i < n; i++ {
		sh := svc.cl.Shard(i)
		if err := sh.Tree().ImportLedger(snap.Shards[i].Ledger); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if states := snap.Shards[i].PlacerStates; len(states) > 0 {
			sh.RestorePlacerState(states[0])
		}
	}
	// 2. Attach the snapshot's live grants (sorted by key within each
	// shard when written): no ledger or gauge mutation — the imported
	// bits already carry them — but the lifecycle events flow to the
	// enforcement sinks, rebuilding per-tenant dataplane state.
	for i := 0; i < n; i++ {
		sh := svc.cl.Shard(i)
		for _, rec := range snap.Shards[i].Grants {
			ten := sh.Attach(rec)
			d.grants[grantKey{i, rec.Key}] = &grant{ten: ten, svc: svc}
		}
	}
	// 3. Absolute state: gauges, counters, dispatch stats. Restored
	// after attach so the attach-time sink events' counter bumps are
	// overwritten by the snapshot values (the dataplane keeps only its
	// own FabricBuilds — the fabrics really were rebuilt).
	for i := 0; i < n; i++ {
		s := snap.Shards[i]
		sh := svc.cl.Shard(i)
		sh.RestoreGauges(s.ReservedMbps, s.Slots, s.Tenants, s.Seq)
		sh.RestoreAdmitStats(s.Stats)
	}
	if svc.enf != nil {
		if snap.Enforce == nil || len(snap.Enforce.Counters) != len(svc.enf.drivers) {
			return errors.New("snapshot enforcement counters missing or mis-sized")
		}
		for i, drv := range svc.enf.drivers {
			drv.RestoreCounters(snap.Enforce.Counters[i])
		}
	}
	svc.disp.RestoreStats(snap.Dispatch)
	// 4. Replay the suffix through the natural commit paths: counters,
	// gauges, and sink events advance exactly as they did live.
	dispatched := uint64(0)
	for i, rec := range suffix {
		ev, err := place.DecodeEvent(rec)
		if err != nil {
			return fmt.Errorf("log record %d: %w", i, err)
		}
		if ev.First >= 0 {
			dispatched++
		}
		if err := d.replayEvent(ev); err != nil {
			return fmt.Errorf("log record %d (%s key %d): %w", i, ev.Kind, ev.Key, err)
		}
	}
	// 5. Dispatch-policy state: every dispatch-path event consumed
	// exactly one policy pick (replay does not run the policy — the
	// routes come from the log), so the pick counter advances by the
	// suffix's dispatch count and stateful policies rebuild their RNG
	// position from it.
	if sp, ok := svc.disp.Policy().(cluster.StatefulPolicy); ok {
		sp.RestorePicks(snap.Picks+dispatched, n)
	}
	return nil
}

// replayEvent applies one recorded lifecycle event. Admit-path events
// (First >= 0) re-walk the recorded failover route so every shard that
// saw the request live re-observes it — counters and placer demand
// estimators advance exactly as they did. Resize- and release-scoped
// events (First == -1) touch only the grant's shard; First == -2 marks
// a zero-step resize, replayed through the natural Resize path (no
// placer runs for it).
func (d *Durability) replayEvent(ev place.Event) error {
	svc := d.svc
	if ev.First >= 0 {
		n := svc.cl.Size()
		// Placers observe demand on every well-formed arrival they saw;
		// NaN marks requests without a TAG (older builds accepted a
		// caller-supplied model instead), and validation failures never
		// reached a placer at all.
		observe := !math.IsNaN(ev.Demand) && ev.Reason != InvalidRequest
		steps := (ev.Shard - ev.First + n) % n
		for k := 0; k < steps; k++ {
			sh := svc.cl.Shard((ev.First + k) % n)
			if observe {
				sh.ObserveDemand(ev.Demand)
			}
			sh.ReplayReject()
		}
		final := svc.cl.Shard(ev.Shard)
		if observe {
			final.ObserveDemand(ev.Demand)
		}
		switch ev.Kind {
		case place.EventAdmitted:
			ten := final.ReplayAdmit(ev)
			d.grants[grantKey{ev.Shard, ev.Key}] = &grant{ten: ten, svc: svc}
		case place.EventRejected:
			final.ReplayReject()
		case place.EventFailed:
			final.ReplayFail()
		default:
			return fmt.Errorf("dispatch-path event with kind %s", ev.Kind)
		}
		svc.disp.ReplayDispatch(ev.Kind, ev.First, ev.Shard)
		return nil
	}
	gk := grantKey{ev.Shard, ev.Key}
	switch ev.Kind {
	case place.EventResized:
		g, ok := d.grants[gk]
		if !ok {
			return errors.New("resize of unknown grant")
		}
		if ev.First == -2 {
			// Zero-step resize: nothing committed live, but the
			// lifecycle event still reached the enforcement sink.
			return g.ten.Resize(ev.Graph)
		}
		g.ten.ReplayResize(ev)
	case place.EventRejected:
		svc.cl.Shard(ev.Shard).ReplayReject()
	case place.EventFailed:
		svc.cl.Shard(ev.Shard).ReplayFail()
	case place.EventReleased:
		g, ok := d.grants[gk]
		if !ok {
			return errors.New("release of unknown grant")
		}
		g.ten.Release()
		delete(d.grants, gk)
	default:
		return fmt.Errorf("grant-scoped event with kind %s", ev.Kind)
	}
	return nil
}

// encodeSnapshot serializes the service's complete durable state.
// Callers must hold d.mu (or own the service exclusively, as New and
// recovery do).
func (d *Durability) encodeSnapshot() ([]byte, error) {
	svc := d.svc
	n := svc.cl.Size()
	snap := snapshotFile{
		Version:  snapshotVersion,
		Spec:     d.spec,
		Config:   d.cfg,
		Shards:   make([]shardSnap, n),
		Dispatch: svc.disp.Stats(),
	}
	if sp, ok := svc.disp.Policy().(cluster.StatefulPolicy); ok {
		snap.Picks = sp.Picks()
	}
	for i := 0; i < n; i++ {
		sh := svc.cl.Shard(i)
		reserved, slots, tenants, seq := sh.ExportGauges()
		snap.Shards[i] = shardSnap{
			Ledger:       sh.ExportLedger(),
			ReservedMbps: reserved,
			Slots:        slots,
			Tenants:      tenants,
			Seq:          seq,
			Stats:        sh.Stats(),
			Grants:       []place.GrantRecord{},
		}
		if v, ok := sh.PlacerState(); ok {
			snap.Shards[i].PlacerStates = []float64{v}
		}
	}
	//cloudlint:ordered grant records are appended per shard and each shard's slice is sorted by key just below
	for gk, g := range d.grants {
		rec, ok := g.ten.Record()
		if !ok {
			continue
		}
		snap.Shards[gk.shard].Grants = append(snap.Shards[gk.shard].Grants, rec)
	}
	for i := range snap.Shards {
		recs := snap.Shards[i].Grants
		sort.Slice(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
	}
	if svc.enf != nil {
		es := &enforceSnap{Counters: make([]dataplane.Counters, len(svc.enf.drivers))}
		for i, drv := range svc.enf.drivers {
			es.Counters[i] = drv.Counters()
		}
		snap.Enforce = es
	}
	return json.Marshal(snap)
}

// Stats reports the write-ahead log's position: generation, records
// and bytes since the last snapshot (the replay lag a crash would pay),
// fsyncs, and the last snapshot's size and time.
func (d *Durability) Stats() WALStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Stats()
}

// Dir returns the ledger directory.
func (d *Durability) Dir() string { return d.log.Dir() }

// Grants returns the live grants in deterministic (shard, key) order —
// the handles a recovered service's callers rebind to after Open.
func (d *Durability) Grants() []Grant {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]grantKey, 0, len(d.grants))
	for gk := range d.grants {
		keys = append(keys, gk)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].shard != keys[b].shard {
			return keys[a].shard < keys[b].shard
		}
		return keys[a].key < keys[b].key
	})
	out := make([]Grant, len(keys))
	for i, gk := range keys {
		out[i] = d.grants[gk]
	}
	return out
}

// Snapshot forces a snapshot now, truncating the write-ahead log.
func (d *Durability) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return d.rejectClosedLocked("snapshot")
	}
	return d.snapshotLocked()
}

// snapshotLocked writes a snapshot and rotates the log, wedging the
// service on failure (a service that cannot persist must stop
// acknowledging operations).
func (d *Durability) snapshotLocked() error {
	b, err := d.encodeSnapshot()
	if err != nil {
		d.wedgeLocked(err)
		return place.Reject("snapshot", ShuttingDown, err)
	}
	if err := d.log.Rotate(b); err != nil {
		d.wedgeLocked(err)
		return place.Reject("snapshot", ShuttingDown, err)
	}
	return nil
}

// maybeSnapshotLocked rotates when the log reached the configured
// event count.
func (d *Durability) maybeSnapshotLocked() {
	if !d.closed && d.log.Stats().Records >= uint64(d.every) {
		d.snapshotLocked() //nolint:errcheck // wedges on failure; next op reports it
	}
}

// wedgeLocked latches a log failure: the service stops accepting
// operations (typed shutting_down rejections) so no acknowledged state
// can diverge from the log.
func (d *Durability) wedgeLocked(err error) {
	d.closed = true
	d.err = err
	d.log.Close() //nolint:errcheck // already failing; nothing to report
}

// rejectClosedLocked builds the typed rejection for operations after
// Close or a wedge.
func (d *Durability) rejectClosedLocked(op string) error {
	if d.err != nil {
		return place.Rejectf(op, ShuttingDown, "service closed after log failure: %v", d.err)
	}
	return place.Rejectf(op, ShuttingDown, "service is closed")
}

// close flushes a final snapshot and closes the log. Idempotent.
func (d *Durability) close(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return d.err
	}
	if err := ctx.Err(); err != nil {
		return place.Reject("close", Canceled, err)
	}
	d.closed = true
	if err := d.snapshotNoWedgeLocked(); err != nil {
		d.err = err
		d.log.Close() //nolint:errcheck // snapshot failure already reported
		return err
	}
	return d.log.Close()
}

// snapshotNoWedgeLocked is snapshotLocked for the close path, which
// manages the latch itself.
func (d *Durability) snapshotNoWedgeLocked() error {
	b, err := d.encodeSnapshot()
	if err != nil {
		return err
	}
	return d.log.Rotate(b)
}

// abandon simulates a crash for recovery tests: the log's file handles
// close with no final snapshot, exactly the state a kill would leave
// (every acknowledged append is already fsynced).
func (d *Durability) abandon() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.err = errors.New("abandoned")
	d.log.Close() //nolint:errcheck // simulated crash
}

// admit runs one admission: dispatch with route tracing and the log
// write happen under the durability lock (so log order is commit
// order), then the lock is released and the admission waits at the
// flush barrier until its record is durable — concurrent admits
// coalesce into one fsync. An admission whose record never becomes
// durable is rolled back before the error returns — an acknowledged
// grant must never be missing from the log.
func (d *Durability) admit(preq *place.Request) (Grant, error) {
	d.mu.Lock()
	if d.closed {
		defer d.mu.Unlock()
		return nil, d.rejectClosedLocked("admit")
	}
	g, lsn, err := d.admitLocked(preq)
	d.mu.Unlock()
	if lsn != 0 {
		if ferr := d.syncTo(lsn); ferr != nil {
			d.rollbackGrant(g)
			return nil, ferr
		}
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// admitBatch coalesces a batch of admissions into one durability
// critical section and ONE flush: the lock is taken once, each element
// runs the same dispatch-and-write sequence admit performs (so the log
// records the batch in order exactly as sequential admissions would),
// and a single barrier wait after the lock drops makes every record
// durable — N framed writes, one fsync. Grants are parallel to preqs
// (nil where an element failed); the error joins the per-element
// failures, each carrying its batch index.
func (d *Durability) admitBatch(preqs []*place.Request) ([]Grant, error) {
	d.mu.Lock()
	grants := make([]Grant, len(preqs))
	lsns := make([]uint64, len(preqs))
	var (
		errs   []error
		maxLSN uint64
	)
	for i, preq := range preqs {
		var (
			g   *grant
			err error
		)
		if d.closed { // a mid-batch wedge fails the remaining elements
			err = d.rejectClosedLocked("admit")
		} else {
			g, lsns[i], err = d.admitLocked(preq)
			if lsns[i] > maxLSN {
				maxLSN = lsns[i]
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", i, place.WithBatchIndex(err, i)))
			continue
		}
		grants[i] = g
	}
	d.mu.Unlock()
	if maxLSN != 0 {
		if ferr := d.syncTo(maxLSN); ferr != nil {
			// Elements whose records were already durable (an earlier
			// flush or rotation covered them) stand; the rest roll back
			// and fail — acknowledged iff logged, even mid-wedge.
			durable := d.log.Synced()
			for i := range grants {
				g, ok := grants[i].(*grant)
				if !ok || lsns[i] <= durable {
					continue
				}
				d.rollbackGrant(g)
				grants[i] = nil
				errs = append(errs, fmt.Errorf("request %d: %w", i, place.WithBatchIndex(ferr, i)))
			}
		}
	}
	return grants, errors.Join(errs...)
}

// admitLocked is the dispatch-and-write body of one admission; the
// caller holds d.mu and has checked d.closed. The returned LSN (0 when
// nothing was written) names the outcome's log record; the caller must
// not acknowledge the outcome — grant or error — before a flush
// barrier covers it.
func (d *Durability) admitLocked(preq *place.Request) (g *grant, lsn uint64, err error) {
	ten, first, last, err := d.svc.disp.PlaceTraced(preq)
	demand := math.NaN()
	if preq.Graph != nil {
		demand = preq.Graph.PerVMDemand()
	}
	if err != nil {
		kind := place.EventFailed
		if errors.Is(err, place.ErrRejected) {
			kind = place.EventRejected
		}
		ev := place.Event{
			Kind:   kind,
			ID:     preq.ID,
			Shard:  last,
			First:  first,
			Demand: demand,
			Reason: place.ReasonOf(err),
		}
		lsn, aerr := d.writeLocked(ev)
		if aerr != nil {
			return nil, 0, aerr
		}
		d.maybeSnapshotLocked()
		return nil, lsn, err
	}
	rec, _ := ten.Record()
	ev := place.Event{
		Kind:      place.EventAdmitted,
		Key:       ten.Key(),
		ID:        preq.ID,
		Graph:     rec.Graph,
		Placement: rec.Placement,
		Shard:     last,
		First:     first,
		HA:        rec.HA,
		Resources: rec.Resources,
		Delta:     rec.Delta,
		Demand:    demand,
	}
	lsn, aerr := d.writeLocked(ev)
	if aerr != nil {
		ten.Release()
		return nil, 0, aerr
	}
	g = &grant{ten: ten, svc: d.svc}
	d.grants[grantKey{last, ten.Key()}] = g
	d.maybeSnapshotLocked()
	return g, lsn, nil
}

// rollbackGrant undoes an admission whose log record never became
// durable: the tenant releases and the grant unregisters, keeping
// acknowledged-iff-logged even as the service wedges. The release is
// not logged — the service is closed, and the recovered state simply
// never contains the admission.
func (d *Durability) rollbackGrant(g *grant) {
	if g == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	g.ten.Release()
	delete(d.grants, grantKey{g.ten.Shard().ID(), g.ten.Key()})
}

// resize runs one resize under the durability lock. Outcomes that
// mutated state — committed resizes, zero-step resizes (their
// lifecycle event reached the enforcement sink), and failures that
// advanced shard counters — are logged; Unsupported/Released
// rejections touch nothing and are not.
func (d *Durability) resize(g *grant, newGraph *tag.Graph) error {
	d.mu.Lock()
	if d.closed {
		defer d.mu.Unlock()
		return d.rejectClosedLocked("resize")
	}
	shard := g.ten.Shard().ID()
	before := g.ten.Reservation()
	err := g.ten.Resize(newGraph)
	if err != nil {
		reason := place.ReasonOf(err)
		if reason == Unsupported || reason == Released {
			d.mu.Unlock()
			return err // no counters moved; nothing to replay
		}
		kind := place.EventFailed
		if errors.Is(err, place.ErrRejected) {
			kind = place.EventRejected
		}
		ev := place.Event{
			Kind:   kind,
			Key:    g.ten.Key(),
			ID:     g.ten.ID(),
			Shard:  shard,
			First:  -1,
			Demand: math.NaN(),
			Reason: reason,
		}
		lsn, aerr := d.writeLocked(ev)
		if aerr != nil {
			d.mu.Unlock()
			return aerr
		}
		d.maybeSnapshotLocked()
		d.mu.Unlock()
		if ferr := d.syncTo(lsn); ferr != nil {
			return ferr
		}
		return err
	}
	rec, _ := g.ten.Record()
	ev := place.Event{
		Kind:      place.EventResized,
		Key:       g.ten.Key(),
		ID:        g.ten.ID(),
		Graph:     rec.Graph,
		Placement: rec.Placement,
		Shard:     shard,
		First:     -1,
		Delta:     rec.Delta,
		Demand:    math.NaN(),
	}
	if g.ten.Reservation() == before {
		// Zero-step resize: the reservation pointer only changes when a
		// resize commits, so nothing was placed — but the lifecycle
		// event reached the enforcement sink and must replay.
		ev.First = -2
		ev.Graph = newGraph
	}
	lsn, aerr := d.writeLocked(ev)
	if aerr != nil {
		// The resize committed but its record did not: the ledger would
		// diverge from the log on recovery, so the service wedges
		// (writeLocked already latched) and the caller must treat the
		// resize outcome as unknown.
		d.mu.Unlock()
		return aerr
	}
	d.maybeSnapshotLocked()
	d.mu.Unlock()
	// A flush failure wedges and the outcome is unknown — the resize
	// committed in memory but may be missing from the recovered log.
	return d.syncTo(lsn)
}

// release runs one release under the durability lock. Releases on a
// closed or wedged service still free the in-memory state but are not
// logged — the recovered service resurrects the tenant, matching the
// last durable state.
func (d *Durability) release(g *grant) {
	d.mu.Lock()
	if !g.ten.Release() {
		d.mu.Unlock()
		return // second release: no-op, nothing to log
	}
	gk := grantKey{g.ten.Shard().ID(), g.ten.Key()}
	delete(d.grants, gk)
	if d.closed {
		d.mu.Unlock()
		return
	}
	ev := place.Event{
		Kind:   place.EventReleased,
		Key:    g.ten.Key(),
		ID:     g.ten.ID(),
		Shard:  gk.shard,
		First:  -1,
		Demand: math.NaN(),
	}
	lsn, aerr := d.writeLocked(ev)
	if aerr != nil {
		d.mu.Unlock()
		return // wedged; the release stands in memory, Grant has no error path
	}
	d.maybeSnapshotLocked()
	d.mu.Unlock()
	d.syncTo(lsn) //nolint:errcheck // wedged; the release stands in memory, Grant has no error path
}

// writeLocked encodes one event and writes its record to the log
// without flushing, returning the record's LSN. The caller holds d.mu
// and must not acknowledge the event's outcome before syncTo covers
// the LSN. On failure the service wedges and a typed shutting_down
// rejection is returned for the caller to surface.
func (d *Durability) writeLocked(ev place.Event) (uint64, error) {
	b, err := place.EncodeEvent(ev)
	var lsn uint64
	if err == nil {
		lsn, err = d.log.Write(b)
	}
	if err != nil {
		d.wedgeLocked(err)
		return 0, place.Rejectf("append", ShuttingDown, "write-ahead log failed: %v", err)
	}
	return lsn, nil
}

// syncTo blocks until the log record at lsn is durable, implementing
// the committer-side flush barrier of the group commit: the first
// waiter through takes flushMu and fsyncs on behalf of every record
// written so far; waiters that queued behind it find their record
// covered when they acquire the barrier and return without touching
// the disk. A snapshot rotation also covers every prior record, so
// waiters racing one skip the fsync entirely. A flush failure wedges
// the service.
func (d *Durability) syncTo(lsn uint64) error {
	if d.log.Synced() >= lsn {
		return nil
	}
	d.flushMu.Lock()
	if d.log.Synced() >= lsn {
		d.flushMu.Unlock()
		return nil
	}
	err := d.log.Sync()
	d.flushMu.Unlock()
	if err == nil {
		return nil
	}
	d.mu.Lock()
	if !d.closed {
		d.wedgeLocked(err)
	}
	d.mu.Unlock()
	return place.Rejectf("append", ShuttingDown, "write-ahead log failed: %v", err)
}
