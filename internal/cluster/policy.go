package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Policy chooses the first shard to try for an incoming request, given
// a load snapshot (one entry per shard, indexed by shard ID). The
// Dispatcher handles failover when the chosen shard rejects, so a
// policy only ranks the primary choice.
//
// Implementations must be safe for concurrent Pick calls. A policy
// driven serially (as the churn simulator does) must be deterministic:
// equal load sequences and equal internal state produce equal picks.
type Policy interface {
	// Name identifies the policy in experiment output and CLI flags.
	Name() string
	// Pick returns the index of the shard to try first. len(loads) is
	// always at least 1.
	Pick(loads []Load) int
}

// Policies lists the policy names NewPolicy accepts, in a stable order.
func Policies() []string { return []string{"rr", "least", "p2c"} }

// NewPolicy constructs a dispatch policy by name: "rr" (round-robin),
// "least" (least-loaded), or "p2c" (power-of-two-choices). seed drives
// the randomized policies ("p2c"); equal seeds give identical pick
// sequences.
func NewPolicy(name string, seed int64) (Policy, error) {
	switch name {
	case "rr", "round-robin":
		return &RoundRobin{}, nil
	case "least", "least-loaded":
		return LeastLoaded{}, nil
	case "p2c", "power-of-two":
		return NewPowerOfTwo(seed), nil
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (have rr, least, p2c)", name)
}

// loadFree is implemented by policies whose picks ignore load data;
// the dispatcher skips the per-request load snapshot for them.
type loadFree interface {
	// PickN is Pick for a fleet of n shards, without a load snapshot.
	PickN(n int) int
}

// StatefulPolicy is implemented by policies whose picks depend on
// internal state (a rotation counter, an RNG position). Every pick
// routes one request, so the pick count is the number of requests the
// dispatcher routed (Dispatcher.Dispatched): the durability layer
// derives it from the shards' tallies on recovery and fast-forwards the
// policy to it, so the recovered policy's next pick equals what the
// crashed one would have produced. Stateless policies (least-loaded)
// simply don't implement it.
type StatefulPolicy interface {
	// RestorePicks fast-forwards a freshly constructed policy to the
	// state it had after the given number of picks over a fleet of
	// `shards` shards. Driven only by single-threaded recovery.
	RestorePicks(picks uint64, shards int)
}

// RoundRobin cycles through shards in ID order, ignoring load. The zero
// value is ready to use and starts at shard 0.
type RoundRobin struct {
	next atomic.Uint64
}

// Name returns "rr".
func (p *RoundRobin) Name() string { return "rr" }

// Pick returns the next shard in rotation.
func (p *RoundRobin) Pick(loads []Load) int { return p.PickN(len(loads)) }

// PickN returns the next shard in rotation without consulting loads,
// letting the dispatcher skip the load snapshot entirely.
func (p *RoundRobin) PickN(n int) int {
	return int((p.next.Add(1) - 1) % uint64(n))
}

// RestorePicks implements StatefulPolicy: resume the rotation where the
// snapshot left it.
func (p *RoundRobin) RestorePicks(picks uint64, shards int) { p.next.Store(picks) }

// LeastLoaded picks the shard with the least reserved bandwidth, the
// dispatcher-visible proxy for spare network capacity. Ties break
// toward the lowest shard ID, so picks are deterministic for equal
// load snapshots.
type LeastLoaded struct{}

// Name returns "least".
func (LeastLoaded) Name() string { return "least" }

// Pick returns the index of the minimum-ReservedMbps entry.
func (LeastLoaded) Pick(loads []Load) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if loads[i].ReservedMbps < loads[best].ReservedMbps {
			best = i
		}
	}
	return best
}

// PowerOfTwo samples two distinct shards uniformly at random and picks
// the one with less reserved bandwidth — the classic "power of two
// choices" load balancer: nearly the balance of least-loaded without
// scanning every shard, and no herding when many dispatchers share
// stale load data. Ties break toward the lower shard ID.
//
// Construct with NewPowerOfTwo; the zero value is not usable.
type PowerOfTwo struct {
	mu sync.Mutex
	r  *rand.Rand
	// seed rebuilds the RNG on recovery (see RestorePicks).
	seed int64
}

// NewPowerOfTwo returns a power-of-two-choices policy whose sampling is
// driven by the given seed; equal seeds give identical pick sequences
// when Pick is called serially.
func NewPowerOfTwo(seed int64) *PowerOfTwo {
	return &PowerOfTwo{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Name returns "p2c".
func (p *PowerOfTwo) Name() string { return "p2c" }

// Pick samples two distinct shards and returns the less loaded one.
// With a single shard it returns 0 without consuming randomness.
func (p *PowerOfTwo) Pick(loads []Load) int {
	n := len(loads)
	if n == 1 {
		return 0
	}
	p.mu.Lock()
	i := p.r.Intn(n)
	j := p.r.Intn(n - 1)
	p.mu.Unlock()
	if j >= i {
		j++ // map onto [0,n) \ {i}: both choices are always distinct
	}
	if i > j {
		i, j = j, i
	}
	if loads[j].ReservedMbps < loads[i].ReservedMbps {
		return j
	}
	return i
}

// RestorePicks implements StatefulPolicy by rebuilding the RNG from the
// seed and burning exactly the draws the recorded picks consumed. The
// burn must repeat the original Intn arguments — Intn's rejection
// sampling consumes a variable number of raw draws depending on its
// bound — so the fleet size must match the snapshot writer's.
func (p *PowerOfTwo) RestorePicks(picks uint64, shards int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.r = rand.New(rand.NewSource(p.seed))
	if shards <= 1 {
		return
	}
	for k := uint64(0); k < picks; k++ {
		p.r.Intn(shards)
		p.r.Intn(shards - 1)
	}
}
