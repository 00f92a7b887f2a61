package guarantee

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// admission state by restoring what cannot be derived — each shard's
// ledger bits, placer demand estimator, and tally (place.Tally, the
// fold of its lifecycle events) — attaching the snapshot's grants, and
// replaying the log suffix through the same commit paths and the same
// fold live operations use. Everything else is derived: gauges and
// grant keys from the tallies, the dispatch policy's position from the
// dispatched count, enforcement dataplanes from the attached grants.
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

// snapshotVersion tags the snapshot JSON format. Version 1 kept the
// shard gauges, admission counters, dispatch counters, policy picks and
// enforcement counters in separate slots; Open decodes it into the
// version-2 structures (see snapshotV1).
const snapshotVersion = 2

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

// shardSnap is one shard's durable state within a snapshot: the ledger
// arrays byte-exactly (they carry float residue from the full admission
// history that cannot be reconstructed from the surviving tenants), the
// tally, the live grants, and with enforcement the dataplane's
// lifecycle counters (rate-limiter state is reconstructed by the next
// control period, not persisted). PlacerStates holds the placer's
// demand estimator as its only element (absent when the placer keeps
// none); snapshots written with planner replicas carry one entry per
// planner, and recovery restores entry 0, the one a single-planner
// writer would have recorded.
type shardSnap struct {
	Ledger       topology.Ledger     `json:"ledger"`
	PlacerStates []float64           `json:"placer_states,omitempty"`
	Tally        place.TallyState    `json:"tally"`
	Enforce      *dataplane.Counters `json:"enforce,omitempty"`
	Grants       []place.GrantRecord `json:"grants"`
}

// snapshotFile is the complete snapshot payload stored by the
// write-ahead log at each generation.
type snapshotFile struct {
	Version int           `json:"version"`
	Spec    topology.Spec `json:"spec"`
	Config  durableConfig `json:"config"`
	Shards  []shardSnap   `json:"shards"`
}

// snapshotV1 is what a version-1 snapshot kept outside the fields
// version 2 shares with it: per-shard gauges and admission counters,
// the dispatcher's fleet-wide counters, the policy's pick count, and
// the dataplanes' counters in one list.
type snapshotV1 struct {
	Shards []struct {
		ReservedMbps float64          `json:"reserved_mbps"`
		Slots        int64            `json:"slots"`
		Tenants      int64            `json:"tenants"`
		Seq          int64            `json:"seq"`
		Stats        place.AdmitStats `json:"stats"`
	} `json:"shards"`
	Dispatch cluster.DispatchStats `json:"dispatch"`
	Picks    int64                 `json:"picks"`
	Enforce  *struct {
		Counters []dataplane.Counters `json:"counters"`
	} `json:"enforce"`
}

// decodeSnapshot parses a snapshot of either version into the
// version-2 structures, so recovery has one path.
func decodeSnapshot(b []byte) (*snapshotFile, error) {
	var snap snapshotFile
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, err
	}
	switch snap.Version {
	case snapshotVersion:
		return &snap, nil
	case 1:
	default:
		return nil, fmt.Errorf("snapshot version %d, this build reads 1 and %d", snap.Version, snapshotVersion)
	}
	var v1 snapshotV1
	if err := json.Unmarshal(b, &v1); err != nil {
		return nil, err
	}
	admitted := int64(0)
	for i := range snap.Shards {
		old, s := v1.Shards[i], &snap.Shards[i]
		// Version 1 stored what version 2 derives; a ledger whose stored
		// values disagree with their derivation is not one this build
		// can reopen faithfully.
		vms := 0
		for _, rec := range s.Grants {
			vms += rec.Placement.VMs()
		}
		if old.Seq != old.Stats.Admitted || old.Tenants != old.Stats.Admitted-old.Stats.Released || old.Slots != int64(vms) {
			return nil, fmt.Errorf("version-1 shard %d: gauges disagree with its counters and grants", i)
		}
		admitted += old.Stats.Admitted
		s.Tally = place.TallyState{AdmitStats: old.Stats, ReservedMbps: old.ReservedMbps}
		if v1.Enforce != nil && i < len(v1.Enforce.Counters) {
			s.Enforce = &v1.Enforce.Counters[i]
		}
	}
	if len(snap.Shards) > 0 {
		if v1.Dispatch.Admitted != admitted {
			return nil, errors.New("version-1 dispatch counters disagree with the shards'")
		}
		// Only the sums over the shards are read, so the fleet-wide
		// counters become shard 0's. The stateless least-loaded policy
		// recorded no picks; it needs none.
		t := &snap.Shards[0].Tally
		t.Exhausted, t.Failovers, t.Dispatched = v1.Dispatch.Rejected, v1.Dispatch.Failovers, v1.Picks
	}
	snap.Version = snapshotVersion
	return &snap, nil
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
	snap, err := decodeSnapshot(snapBytes)
	if err != nil {
		log.Close()
		return nil, place.Rejectf(op, InvalidRequest, "corrupt snapshot in %s: %v", dir, err)
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
	if err := d.recover(snap, suffix); err != nil {
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
	// 1. Per shard, what cannot be derived: ledger bits, the placer's
	// estimator, and the tally; then the live grants (sorted by key
	// when written), whose slots fold back into the tally and whose
	// lifecycle events rebuild the enforcement sink's per-tenant state.
	// The sink counted those events as admissions, so its own counters
	// are restored after them (it keeps its FabricBuilds — the fabric
	// really was rebuilt).
	for i := 0; i < n; i++ {
		s, adm := &snap.Shards[i], svc.cl.Shard(i)
		if err := adm.Tree().ImportLedger(s.Ledger); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if len(s.PlacerStates) > 0 {
			adm.RestorePlacerState(s.PlacerStates[0])
		}
		adm.Tally().Restore(s.Tally)
		for _, rec := range s.Grants {
			d.grants[grantKey{i, rec.Key}] = &grant{ad: adm.AttachGrant(rec), shard: i, svc: svc}
		}
		if svc.enf != nil {
			if s.Enforce == nil {
				return fmt.Errorf("shard %d: snapshot enforcement counters missing", i)
			}
			svc.enf.drivers[i].RestoreCounters(*s.Enforce)
		}
	}
	// 2. Replay the suffix through the natural commit paths: tallies,
	// estimators, and sink events advance exactly as they did live.
	for i, rec := range suffix {
		ev, err := place.DecodeEvent(rec)
		if err != nil {
			return fmt.Errorf("log record %d: %w", i, err)
		}
		if err := d.replayEvent(ev); err != nil {
			return fmt.Errorf("log record %d (%s key %d): %w", i, ev.Kind, ev.Key, err)
		}
	}
	// 3. Dispatch-policy state: every routed request consumed exactly
	// one policy pick (replay does not run the policy — the routes come
	// from the log), so stateful policies rebuild their position from
	// the dispatched count.
	if sp, ok := svc.disp.Policy().(cluster.StatefulPolicy); ok {
		sp.RestorePicks(svc.disp.Dispatched(), n)
	}
	return nil
}

// replayEvent applies one recorded lifecycle event through the entry
// points live operations take. Admit-path events (First >= 0) re-walk
// the recorded failover route (see cluster.Dispatcher.Replay): every
// shard that saw the request live re-observes it and folds its outcome,
// so tallies and placer demand estimators advance exactly as they did.
// Resize- and release-scoped events (First == -1) touch only the
// grant's shard. Older builds also logged zero-step resizes, marked
// First == -2; they committed nothing and replay as nothing.
func (d *Durability) replayEvent(ev place.Event) error {
	svc := d.svc
	if ev.First >= 0 {
		switch ev.Kind {
		case place.EventAdmitted, place.EventRejected, place.EventFailed:
		default:
			return fmt.Errorf("dispatch-path event with kind %s", ev.Kind)
		}
		ad := svc.disp.Replay(ev)
		if ad == nil {
			return nil
		}
		if ad.Key() != ev.Key {
			return fmt.Errorf("admission took key %d on replay", ad.Key())
		}
		d.grants[grantKey{ev.Shard, ev.Key}] = &grant{ad: ad, shard: ev.Shard, svc: svc}
		return nil
	}
	gk := grantKey{ev.Shard, ev.Key}
	switch ev.Kind {
	case place.EventResized:
		g, ok := d.grants[gk]
		if !ok {
			return errors.New("resize of unknown grant")
		}
		if ev.First != -2 {
			g.ad.ReplayResize(ev)
		}
	case place.EventRejected, place.EventFailed:
		svc.cl.Shard(ev.Shard).Tally().Fold(ev, svc.cl.Size())
	case place.EventReleased:
		g, ok := d.grants[gk]
		if !ok {
			return errors.New("release of unknown grant")
		}
		g.ad.Release()
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
		Version: snapshotVersion,
		Spec:    d.spec,
		Config:  d.cfg,
		Shards:  make([]shardSnap, n),
	}
	for i := 0; i < n; i++ {
		adm := svc.cl.Shard(i)
		s := &snap.Shards[i]
		*s = shardSnap{Ledger: adm.ExportLedger(), Tally: adm.Tally().State(), Grants: []place.GrantRecord{}}
		if v, ok := adm.PlacerState(); ok {
			s.PlacerStates = []float64{v}
		}
		if svc.enf != nil {
			c := svc.enf.drivers[i].Counters()
			s.Enforce = &c
		}
	}
	//cloudlint:ordered grant records are appended per shard and each shard's slice is sorted by key just below
	for gk, g := range d.grants {
		rec, ok := g.ad.Record()
		if !ok {
			continue
		}
		snap.Shards[gk.shard].Grants = append(snap.Shards[gk.shard].Grants, rec)
	}
	for i := range snap.Shards {
		recs := snap.Shards[i].Grants
		sort.Slice(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
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
	return rejectClosed(op)
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
	ad, ev, err := d.svc.disp.Place(preq)
	lsn, aerr := d.writeLocked(ev)
	if aerr != nil {
		if ad != nil {
			ad.Release()
		}
		return nil, 0, aerr
	}
	if ad != nil {
		g = &grant{ad: ad, shard: ev.Shard, svc: d.svc}
		d.grants[grantKey{ev.Shard, ev.Key}] = g
	}
	d.maybeSnapshotLocked()
	return g, lsn, err
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
	g.ad.Release()
	delete(d.grants, grantKey{g.shard, g.ad.Key()})
}

// resize runs one resize under the durability lock. Outcomes the
// shard's tally folded — committed resizes and counted failures — are
// logged; Unsupported/Released rejections and zero-step resizes (every
// tier size kept) fold nothing and are not.
func (d *Durability) resize(g *grant, newGraph *tag.Graph) error {
	d.mu.Lock()
	if d.closed {
		defer d.mu.Unlock()
		return d.rejectClosedLocked("resize")
	}
	ev, err := g.ad.Resize(newGraph)
	if ev.Kind == 0 {
		d.mu.Unlock()
		return err // nothing moved; nothing to replay
	}
	ev.Shard = g.shard
	lsn, aerr := d.writeLocked(ev)
	if aerr != nil {
		// A committed resize whose record did not make it would diverge
		// from the log on recovery, so the service wedges (writeLocked
		// already latched) and the caller must treat the outcome as
		// unknown.
		d.mu.Unlock()
		return aerr
	}
	d.maybeSnapshotLocked()
	d.mu.Unlock()
	// A flush failure wedges and the outcome is unknown — a resize
	// committed in memory may be missing from the recovered log.
	if ferr := d.syncTo(lsn); ferr != nil {
		return ferr
	}
	return err
}

// release runs one release under the durability lock. Releases on a
// closed or wedged service still free the in-memory state but are not
// logged — the recovered service resurrects the tenant, matching the
// last durable state.
func (d *Durability) release(g *grant) {
	d.mu.Lock()
	ev := g.ad.Release()
	if ev.Kind == 0 {
		d.mu.Unlock()
		return // second release: no-op, nothing to log
	}
	delete(d.grants, grantKey{g.shard, ev.Key})
	if d.closed {
		d.mu.Unlock()
		return
	}
	ev.Shard = g.shard
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
