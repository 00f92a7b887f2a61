// Package netem is a flow-level fluid network emulator: links with fixed
// capacities, flows with routes, demands, rate caps and weights, and a
// weighted max-min fair bandwidth allocator (progressive filling).
//
// TCP flows sharing a bottleneck converge, in steady state, to max-min
// fair shares of the available capacity; rate limiters clamp individual
// flows. That steady state is exactly what the enforcement experiments of
// §5.2 measure, so the emulator computes it directly rather than
// simulating packets.
package netem

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput is wrapped by every malformed-input failure of this
// package (negative capacities, flows referencing unknown links), so
// callers up the stack — the enforcement dataplane, the bwd daemon —
// can classify emulator misuse as an invalid request in the
// place.RejectionError taxonomy instead of crashing on a panic.
var ErrBadInput = errors.New("netem: bad input")

// LinkID identifies a link in a Network.
type LinkID int

// Network is a set of capacitated links. The zero value is unusable; use
// New.
type Network struct {
	caps  []float64
	names []string
}

// New returns an empty network.
func New() *Network { return &Network{} }

// AddLink adds a link with the given capacity (Mbps) and returns its ID.
// A negative capacity fails with an error wrapping ErrBadInput and
// leaves the network unchanged.
func (n *Network) AddLink(name string, capacity float64) (LinkID, error) {
	if capacity < 0 {
		return 0, fmt.Errorf("%w: link %q has negative capacity %g", ErrBadInput, name, capacity)
	}
	n.caps = append(n.caps, capacity)
	n.names = append(n.names, name)
	return LinkID(len(n.caps) - 1), nil
}

// Links returns the number of links.
func (n *Network) Links() int { return len(n.caps) }

// Capacity returns the capacity of link l.
func (n *Network) Capacity(l LinkID) float64 { return n.caps[l] }

// Name returns the label of link l.
func (n *Network) Name(l LinkID) string { return n.names[l] }

// Flow is one fluid flow.
type Flow struct {
	// Path is the sequence of links the flow traverses.
	Path []LinkID
	// Demand is the offered load in Mbps; use Greedy for an unbounded
	// (backlogged TCP) source.
	Demand float64
	// Limit caps the flow's rate (a rate limiter); 0 means unlimited.
	Limit float64
	// Weight scales the flow's max-min share; 0 means 1 (plain TCP).
	Weight float64
}

// Greedy marks a flow that always has traffic to send.
var Greedy = math.Inf(1)

func (f Flow) cap() float64 {
	c := f.Demand
	if f.Limit > 0 && f.Limit < c {
		c = f.Limit
	}
	return c
}

func (f Flow) weight() float64 {
	if f.Weight > 0 {
		return f.Weight
	}
	return 1
}

// MaxMin computes the weighted max-min fair allocation of the flows on
// the network via progressive filling: a global water level θ rises,
// every unfrozen flow i transmits weight_i·θ, and flows freeze when they
// hit their demand/limit cap or when a link they cross saturates.
//
// The allocation is feasible (no link over capacity beyond rounding),
// and every flow is limited by its cap or by a saturated link on which
// no flow has a larger rate/weight: Check certifies exactly that.
//
// A flow referencing a link outside the network fails with an error
// wrapping ErrBadInput before any allocation work is done.
//
// It runs a fresh Solver, the event-driven implementation; hot paths
// that solve repeatedly should hold a Solver to reuse its scratch
// buffers.
func (n *Network) MaxMin(flows []Flow) ([]float64, error) {
	var s Solver
	return s.MaxMinCaps(n.caps, flows, nil)
}
