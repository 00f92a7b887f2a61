// Package guarantee is the public front door of the repository: the
// single API through which every consumer — commands, examples,
// experiments, RPC daemons — obtains, resizes, and releases bandwidth
// guarantees.
//
// The CloudMirror controller of the paper is a *service* applications
// call: request a guarantee for a TAG, grow or shrink tiers as load
// changes (§6 auto-scaling), release on departure. This package models
// exactly that lifecycle:
//
//	svc, _ := guarantee.New(topology.MediumSpec(),
//	        guarantee.WithShards(4),
//	        guarantee.WithPolicy("p2c"))
//	grant, err := svc.Admit(ctx, guarantee.Request{Graph: g, HA: guarantee.HASpec{RWCS: 0.5}})
//	...
//	err = grant.Resize(ctx, biggerG) // tier sizes changed, per-VM guarantees untouched
//	...
//	grant.Release()
//
// Every service places tenants with CloudMirror and prices each by its
// own TAG. Construction is by functional options over one constructor:
// shard count, dispatch policy, enforcement and durability compose
// freely. Every failure is a typed *RejectionError carrying a
// machine-readable Reason, so callers (and the cmd/bwd HTTP daemon) can
// act on rejection causes without string matching; capacity-class
// rejections keep satisfying errors.Is(err, place.ErrRejected) for
// older code.
package guarantee

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"cloudmirror/internal/cluster"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Aliases re-exported from the internal layers, so consumers of the
// public API never import internal packages for its vocabulary types.
type (
	// HASpec is a tenant's high-availability requirement (§4.5).
	HASpec = place.HASpec
	// Reservation is a committed tenant's placement and holdings.
	Reservation = place.Reservation
	// Load is one shard's occupancy snapshot.
	Load = cluster.Load
	// RejectionError is the typed failure every operation returns: an
	// operation name, a machine-readable Reason, and the underlying
	// cause.
	RejectionError = place.RejectionError
	// Reason is the machine-readable rejection code.
	Reason = place.Reason
)

// The rejection taxonomy, re-exported: every error returned by a
// Service or Grant carries one of these codes.
const (
	// NoSlots: a server ran out of free VM slots.
	NoSlots = place.ReasonNoSlots
	// InsufficientBandwidth: an uplink cannot cover the tenant's cut.
	InsufficientBandwidth = place.ReasonInsufficientBandwidth
	// InsufficientResources: a declared per-server resource dimension
	// (CPU, memory) is exhausted.
	InsufficientResources = place.ReasonInsufficientResources
	// NoPlacement: the placement search exhausted the tree without a
	// feasible embedding.
	NoPlacement = place.ReasonNoPlacement
	// InvalidRequest: the request (or an option) is malformed.
	InvalidRequest = place.ReasonInvalidRequest
	// Unsupported: the configured algorithm cannot perform the
	// operation (e.g. Resize without incremental auto-scaling).
	Unsupported = place.ReasonUnsupported
	// Released: the grant was already released.
	Released = place.ReasonReleased
	// Canceled: the caller's context ended before a decision.
	Canceled = place.ReasonCanceled
	// ShuttingDown: the service was closed (Service.Close) or wedged
	// after a write-ahead-log failure; no further operations are
	// accepted.
	ShuttingDown = place.ReasonShuttingDown
)

// ReasonOf extracts the Reason from any error returned by this
// package ("" for untyped errors).
func ReasonOf(err error) Reason { return place.ReasonOf(err) }

// BatchIndexOf extracts the batch position of a rejection returned by
// AdmitBatch (-1 for errors outside a batch, or untyped errors), so
// callers can retry or drop exactly the failing element.
func BatchIndexOf(err error) int { return place.BatchIndexOf(err) }

// Request is one tenant's guarantee request.
type Request struct {
	// ID identifies the tenant within the service (surfaced in errors
	// and experiment output; uniqueness is the caller's concern).
	ID int64
	// Graph is the tenant's TAG: what the tenant is placed and priced
	// by. Required.
	Graph *tag.Graph
	// HA is the tenant's availability requirement; zero means none.
	HA HASpec
	// Resources optionally gives each tier's per-VM demand vector for
	// the topology's declared resource dimensions.
	Resources [][]float64
}

// Grant is a live guarantee: the handle through which a tenant's
// allocation is inspected, resized, and released. Methods are safe for
// concurrent use; operations on one grant serialize against each
// other.
type Grant interface {
	// Reservation exposes the tenant's current placement and
	// per-uplink holdings for inspection.
	Reservation() *Reservation
	// Resize grows or shrinks the tenant in place to newGraph — the
	// tenant's TAG with tier sizes changed, per-VM guarantees
	// untouched (§3/§6). Multi-tier changes are applied as an atomic
	// sequence of single-tier steps: on any failure the ledger and the
	// grant are exactly as before.
	Resize(ctx context.Context, newGraph *tag.Graph) error
	// Release returns every slot and reservation to the service.
	// Subsequent calls are no-ops.
	Release()
	// Shard returns the ID of the shard hosting the tenant.
	Shard() int
	// Key returns the shard-unique grant key carried by the grant's
	// lifecycle events — with Shard, the stable address a recovered
	// service's Durability.Grants handles are matched by.
	Key() int64
}

// Stats aggregates a service's monotonic counters.
type Stats struct {
	// Admitted and Rejected partition completed requests (Rejected
	// means every shard refused); Failed counts malformed requests and
	// internal errors; Released counts departures; Resized counts
	// successful in-place resizes.
	Admitted, Rejected, Failed, Released, Resized int64
	// Failovers counts placement attempts beyond each request's first
	// shard.
	Failovers int64
	// PerShard holds each shard's admission counters, indexed by shard
	// ID.
	PerShard []place.AdmitStats
}

// Service is the admission front door: every consumer obtains
// guarantees through one of these. Implementations are safe for
// concurrent use.
type Service interface {
	// Name identifies the placement algorithm serving the guarantees.
	Name() string
	// Policy identifies the dispatch policy routing requests across
	// shards.
	Policy() string
	// Shards returns the fleet size.
	Shards() int
	// Admit obtains a guarantee for the request. On success the
	// returned Grant owns the tenant's resources until Release; on
	// failure the service is exactly as if the request never arrived,
	// and the error is a *RejectionError.
	Admit(ctx context.Context, req Request) (Grant, error)
	// AdmitBatch admits the requests in order, returning one grant per
	// request (nil where that request was rejected) and the joined
	// rejection errors, if any. A batch is not atomic: earlier
	// admissions stand even when later ones reject.
	AdmitBatch(ctx context.Context, reqs []Request) ([]Grant, error)
	// Stats reports the service's counters so far.
	Stats() Stats
	// Loads returns a point-in-time occupancy snapshot of every shard,
	// indexed by shard ID.
	Loads() []Load
	// Topology exposes shard i's datacenter tree for read-only
	// inspection (level names, per-level reserved bandwidth). Mutating
	// it corrupts the ledger; concurrent admissions make reads
	// approximate.
	Topology(shard int) *topology.Tree
	// Enforcement exposes the runtime enforcement plane — the GP/RA
	// control loop the Grant lifecycle feeds — or nil when the service
	// was built without WithEnforcement.
	Enforcement() *Enforcement
	// Durability exposes the durable control plane — the write-ahead
	// log and snapshot lifecycle behind WithDurability/Open — or nil
	// for an in-memory service.
	Durability() *Durability
	// Close shuts the service down cleanly: a durable service writes a
	// final snapshot and closes the write-ahead log; an in-memory
	// service has nothing to flush. After Close every Admit, AdmitBatch
	// and Grant.Resize rejects with ShuttingDown; Grant.Release still
	// frees the tenant and reports nothing. Idempotent.
	Close(ctx context.Context) error
}

// service is the Service implementation: a shard fleet behind a
// dispatcher, built by New.
type service struct {
	cl   *cluster.Cluster
	disp *cluster.Dispatcher
	name string
	enf  *Enforcement
	dur  *Durability
	// closed latches an in-memory service's Close; a durable service
	// latches under its Durability lock instead.
	closed atomic.Bool
}

// Name identifies the placement algorithm serving the guarantees.
func (s *service) Name() string { return s.name }

// Policy identifies the dispatch policy routing requests.
func (s *service) Policy() string { return s.disp.Policy().Name() }

// Shards returns the fleet size.
func (s *service) Shards() int { return s.cl.Size() }

// Topology exposes shard i's tree for read-only inspection.
func (s *service) Topology(shard int) *topology.Tree { return s.cl.Shard(shard).Tree() }

// placeRequest lowers a public Request to the internal request shape;
// validation prices it by its TAG.
func placeRequest(req *Request) *place.Request {
	return &place.Request{ID: req.ID, Graph: req.Graph, HA: req.HA, Resources: req.Resources}
}

// Admit obtains a guarantee for the request.
func (s *service) Admit(ctx context.Context, req Request) (Grant, error) {
	if err := ctx.Err(); err != nil {
		return nil, place.Reject("admit", Canceled, err)
	}
	preq := placeRequest(&req)
	if s.dur != nil {
		return s.dur.admit(preq)
	}
	if s.closed.Load() {
		return nil, rejectClosed("admit")
	}
	ad, ev, err := s.disp.Place(preq)
	if err != nil {
		return nil, err
	}
	return &grant{ad: ad, shard: ev.Shard, svc: s}, nil
}

// rejectClosed is the typed rejection for an operation on a closed
// in-memory service.
func rejectClosed(op string) error { return place.Rejectf(op, ShuttingDown, "service is closed") }

// AdmitBatch admits the requests in order, each through the path Admit
// takes, so each element decides exactly as admitting the batch
// sequentially would. A durable service writes the whole batch under
// one durability lock and pays one fsync for it. Rejection errors carry
// the failing element's index (RejectionError.BatchIndex) so callers
// can retry the remainder.
func (s *service) AdmitBatch(ctx context.Context, reqs []Request) ([]Grant, error) {
	if err := ctx.Err(); err != nil {
		return make([]Grant, len(reqs)), place.Reject("admit", Canceled, err)
	}
	preqs := make([]*place.Request, len(reqs))
	for i := range reqs {
		preqs[i] = placeRequest(&reqs[i])
	}
	if s.dur != nil {
		return s.dur.admitBatch(preqs)
	}
	grants := make([]Grant, len(reqs))
	if s.closed.Load() {
		return grants, rejectClosed("admit")
	}
	var errs []error
	for i, preq := range preqs {
		ad, ev, err := s.disp.Place(preq)
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", i, place.WithBatchIndex(err, i)))
			continue
		}
		grants[i] = &grant{ad: ad, shard: ev.Shard, svc: s}
	}
	return grants, errors.Join(errs...)
}

// Stats reports the service's counters so far.
func (s *service) Stats() Stats {
	d := s.disp.Stats()
	st := Stats{
		Admitted:  d.Admitted,
		Rejected:  d.Rejected,
		Failovers: d.Failovers,
		PerShard:  s.cl.Stats(),
	}
	for _, sh := range st.PerShard {
		st.Failed += sh.Failed
		st.Released += sh.Released
		st.Resized += sh.Resized
	}
	return st
}

// Loads returns every shard's occupancy snapshot.
func (s *service) Loads() []Load { return s.cl.Loads() }

// Enforcement exposes the enforcement plane; nil when the service was
// built without WithEnforcement.
func (s *service) Enforcement() *Enforcement { return s.enf }

// Durability exposes the durable control plane; nil for an in-memory
// service.
func (s *service) Durability() *Durability { return s.dur }

// Close shuts the service down: a durable service flushes a final
// snapshot and closes its write-ahead log; an in-memory service has
// nothing to flush and only latches closed.
func (s *service) Close(ctx context.Context) error {
	if s.dur == nil {
		s.closed.Store(true)
		return nil
	}
	return s.dur.close(ctx)
}

// grant adapts a place.Admitted on shard `shard` to the public Grant
// interface. svc is the issuing service, so the enforcement plane can
// verify a grant belongs to it (shard-local keys are not unique across
// services).
type grant struct {
	ad    *place.Admitted
	shard int
	svc   *service
}

// Reservation exposes the tenant's current placement and holdings.
func (g *grant) Reservation() *Reservation { return g.ad.Reservation() }

// Resize grows or shrinks the tenant in place to newGraph.
func (g *grant) Resize(ctx context.Context, newGraph *tag.Graph) error {
	if err := ctx.Err(); err != nil {
		return place.Reject("resize", Canceled, err)
	}
	if g.svc.dur != nil {
		return g.svc.dur.resize(g, newGraph)
	}
	if g.svc.closed.Load() {
		return rejectClosed("resize")
	}
	_, err := g.ad.Resize(newGraph)
	return err
}

// Release returns the tenant's resources. Subsequent calls are no-ops.
func (g *grant) Release() {
	if g.svc.dur != nil {
		g.svc.dur.release(g)
		return
	}
	g.ad.Release()
}

// Shard returns the hosting shard's ID.
func (g *grant) Shard() int { return g.shard }

// Key returns the shard-unique grant key.
func (g *grant) Key() int64 { return g.ad.Key() }
