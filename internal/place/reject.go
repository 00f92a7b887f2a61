package place

import (
	"errors"
	"fmt"

	"cloudmirror/internal/topology"
)

// Reason is a machine-readable rejection code: the taxonomy every
// admission-path failure is classified into. Reasons travel through the
// public guarantee package unchanged (it aliases this type), so a
// serving daemon can map them to wire-level error codes without string
// matching.
type Reason string

// The rejection taxonomy. Capacity-class reasons (those for which
// Capacity reports true) mean "the datacenter cannot host this tenant
// right now" and keep errors.Is(err, ErrRejected) working; the
// remaining reasons mean the request itself — not the ledger state —
// caused the failure.
const (
	// ReasonNoSlots: some server ran out of free VM slots.
	ReasonNoSlots Reason = "no_slots"
	// ReasonInsufficientBandwidth: some uplink cannot cover the
	// tenant's cut.
	ReasonInsufficientBandwidth Reason = "insufficient_bandwidth"
	// ReasonInsufficientResources: a declared per-server resource
	// dimension (CPU, memory) is exhausted.
	ReasonInsufficientResources Reason = "insufficient_resources"
	// ReasonNoPlacement: the placement search exhausted the tree
	// without finding a feasible embedding (the per-site cause is mixed
	// or unknown).
	ReasonNoPlacement Reason = "no_feasible_placement"
	// ReasonInvalidRequest: the request is malformed (nil/empty graph,
	// negative tier size, mismatched resource dimensions, bad option).
	ReasonInvalidRequest Reason = "invalid_request"
	// ReasonUnsupported: the operation is not supported by the
	// configured placement algorithm (e.g. Resize on a placer without
	// incremental auto-scaling).
	ReasonUnsupported Reason = "unsupported"
	// ReasonReleased: the grant was already released.
	ReasonReleased Reason = "released"
	// ReasonCanceled: the caller's context was canceled or expired
	// before a decision was reached.
	ReasonCanceled Reason = "canceled"
	// ReasonShuttingDown: the service's lifecycle owner closed it (or a
	// write-ahead-log failure wedged it); no new admissions are
	// accepted. Not a capacity rejection — retrying against this
	// instance cannot succeed.
	ReasonShuttingDown Reason = "shutting_down"
)

// Capacity reports whether the reason is a capacity rejection — the
// signal experiments fold into rejection rates and the class of errors
// that satisfies errors.Is(err, ErrRejected).
func (r Reason) Capacity() bool {
	switch r {
	case ReasonNoSlots, ReasonInsufficientBandwidth, ReasonInsufficientResources,
		ReasonNoPlacement:
		return true
	}
	return false
}

// RejectionError is the typed admission failure every rejection site
// wraps: an operation, a machine-readable Reason, and the underlying
// cause. Capacity-class rejections satisfy errors.Is(err, ErrRejected)
// for back-compat with pre-taxonomy callers.
type RejectionError struct {
	// Op names the failed operation: "admit", "resize", "configure".
	Op string
	// Reason classifies the failure.
	Reason Reason
	// Err is the underlying cause; may be nil.
	Err error
	// BatchIndex identifies which element of a batch request failed
	// (0-based), so callers can retry the remainder; -1 for
	// single-request operations.
	BatchIndex int
}

// Error renders op, reason, cause, and — for batch failures — the
// failing element's index.
func (e *RejectionError) Error() string {
	at := ""
	if e.BatchIndex >= 0 {
		at = fmt.Sprintf(" at batch element %d", e.BatchIndex)
	}
	if e.Err == nil {
		return fmt.Sprintf("place: %s rejected (%s)%s", e.Op, e.Reason, at)
	}
	return fmt.Sprintf("place: %s rejected (%s)%s: %v", e.Op, e.Reason, at, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *RejectionError) Unwrap() error { return e.Err }

// Is makes capacity-class rejections satisfy errors.Is(err,
// ErrRejected) without forcing ErrRejected into the wrap chain of
// request-shaped failures (invalid, unsupported, released).
func (e *RejectionError) Is(target error) bool {
	return target == ErrRejected && e.Reason.Capacity()
}

// Reject builds a typed rejection.
func Reject(op string, reason Reason, err error) *RejectionError {
	return &RejectionError{Op: op, Reason: reason, Err: err, BatchIndex: -1}
}

// Rejectf builds a typed rejection from a formatted cause.
func Rejectf(op string, reason Reason, format string, args ...any) *RejectionError {
	return &RejectionError{Op: op, Reason: reason, Err: fmt.Errorf(format, args...), BatchIndex: -1}
}

// WithBatchIndex stamps the failing batch element's index onto a typed
// rejection (without mutating the original error), so batch callers
// learn which request failed and can retry the remainder. Untyped
// errors are wrapped in an InvalidRequest-shaped rejection first.
func WithBatchIndex(err error, i int) error {
	if err == nil {
		return nil
	}
	var re *RejectionError
	if errors.As(err, &re) {
		stamped := *re
		stamped.BatchIndex = i
		return &stamped
	}
	return &RejectionError{Op: "admit", Reason: ReasonInvalidRequest, Err: err, BatchIndex: i}
}

// BatchIndexOf extracts the failing batch element's index from an error
// chain (-1 when the error is untyped or not a batch failure).
func BatchIndexOf(err error) int {
	var re *RejectionError
	if errors.As(err, &re) {
		return re.BatchIndex
	}
	return -1
}

// ReasonOf extracts the Reason from an error chain. Untyped errors
// classify by sentinel: topology capacity sentinels map to their
// reasons, bare ErrRejected to ReasonNoPlacement, anything else to "".
func ReasonOf(err error) Reason {
	var re *RejectionError
	if errors.As(err, &re) {
		return re.Reason
	}
	switch {
	case errors.Is(err, topology.ErrNoSlots):
		return ReasonNoSlots
	case errors.Is(err, topology.ErrNoBandwidth):
		return ReasonInsufficientBandwidth
	case errors.Is(err, ErrRejected):
		return ReasonNoPlacement
	}
	return ""
}
