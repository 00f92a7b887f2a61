package place

import (
	"math"

	"cloudmirror/internal/topology"
)

// ValidateRequest is the central admission-request check the Admitter
// runs before placing: a malformed request fails here with a
// typed ReasonInvalidRequest rejection instead of a placer-specific
// panic or silent misplacement deeper in the stack. tree supplies the
// levels an anti-affinity level must name and the declared resource
// dimensions the request's Resources must match.
//
// A nil Model with a non-nil Graph is normalized to Model = Graph (the
// common case for TAG-native placement), mutating req in place.
func ValidateRequest(tree *topology.Tree, req *Request) error {
	const op = "admit"
	if req == nil {
		return Rejectf(op, ReasonInvalidRequest, "nil request")
	}
	if req.Model == nil {
		if req.Graph == nil {
			return Rejectf(op, ReasonInvalidRequest, "request has neither Graph nor Model")
		}
		req.Model = req.Graph
	}
	if req.Graph != nil {
		if err := req.Graph.Validate(); err != nil {
			return Reject(op, ReasonInvalidRequest, err)
		}
	}
	tiers := req.Model.Tiers()
	if tiers <= 0 {
		return Rejectf(op, ReasonInvalidRequest, "model has no tiers")
	}
	total := 0
	for t := 0; t < tiers; t++ {
		n := req.Model.TierSize(t)
		if n < 0 {
			return Rejectf(op, ReasonInvalidRequest, "tier %d has negative size %d", t, n)
		}
		total += n
	}
	if total == 0 {
		return Rejectf(op, ReasonInvalidRequest, "request places no VMs")
	}
	// Written so NaN fails too.
	if !(req.HA.RWCS >= 0 && req.HA.RWCS < 1) {
		return Rejectf(op, ReasonInvalidRequest, "RWCS %g outside [0,1)", req.HA.RWCS)
	}
	if req.HA.LAA < 0 || req.HA.LAA >= tree.Height() {
		return Rejectf(op, ReasonInvalidRequest,
			"anti-affinity level %d outside the topology's levels [0,%d)", req.HA.LAA, tree.Height())
	}
	if req.Resources != nil {
		dims := len(tree.Resources())
		if len(req.Resources) != tiers {
			return Rejectf(op, ReasonInvalidRequest,
				"Resources has %d tiers, model has %d", len(req.Resources), tiers)
		}
		for t, dem := range req.Resources {
			if len(dem) != dims {
				return Rejectf(op, ReasonInvalidRequest,
					"Resources[%d] has %d dimensions, topology declares %d", t, len(dem), dims)
			}
			for r, v := range dem {
				if !(v >= 0 && v <= math.MaxFloat64) {
					return Rejectf(op, ReasonInvalidRequest,
						"Resources[%d][%d] is %g, want a finite non-negative demand", t, r, v)
				}
			}
		}
	}
	return nil
}
