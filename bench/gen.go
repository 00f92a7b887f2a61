package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

// opKind is the lifecycle operation an op performs.
type opKind uint8

const (
	opAdmit opKind = iota
	opResize
	opRelease
)

func (k opKind) String() string { return [...]string{"admit", "resize", "release"}[k] }

// op is one request of the generated stream. The stream is fixed
// before the program under test sees any of it: nothing here depends
// on a decision, so every target replays exactly the same requests.
type op struct {
	kind   opKind
	tenant int        // arrival index of the tenant the op belongs to
	graph  *tag.Graph // admit: the tenant's TAG; resize: the resized TAG
	body   []byte     // admit, resize: the HTTP request body (HTTP streams only)
}

// genSpec sizes one admission stream. The shape — Poisson arrivals,
// exponential lifetimes, BingLike tenants — is the paper's §5 churn
// model (sim.Churn); only the counts differ between workloads.
type genSpec struct {
	load       float64 // target slot load: arrival rate = load·slots/(mean VMs·Td)
	bmax       float64 // ScaleToBmax target, Mbps
	resizeProb float64 // share of tenants that resize once during their lifetime
	arrivals   int     // tenant arrivals in the stream
	warm       int     // arrivals admitted before timing starts
	bodies     bool    // encode HTTP request bodies
}

// stream is a generated op sequence with its phase boundaries:
// ops[:warm] fill the datacenter untimed, ops[warm:tail] are measured,
// ops[tail:] are the departures after the last arrival (the drain).
type stream struct {
	ops        []op
	warm, tail int
	arrivals   int
}

// warmOnly is the stream cut off where timing would start: what a
// set-up that is measured and then dropped replays.
func (st *stream) warmOnly() *stream {
	return &stream{ops: st.ops[:st.warm], warm: st.warm, tail: st.warm, arrivals: st.arrivals}
}

// trajectorySeed fixes the offered-load trajectory every seed shares
// (see generate).
const trajectorySeed = 1

// generate builds the op stream for a seed. Equal (spec, seed) give a
// byte-identical stream.
//
// Which tenant arrives when, and for how long it nominally stays, is
// drawn from trajectorySeed, not from the seed: near capacity the
// rejection count — and with it every cost this benchmark reports —
// follows the offered-load trajectory, and a fresh trajectory per seed
// moved throughput by ±20% between seeds, more than any regression
// bound. The seed moves every arrival by up to two mean gaps, scales
// every lifetime by ±10% and places every resize, which reorders
// neighbouring requests and changes which tenants are rejected, so
// seeds still give different request sequences and different
// decisions.
func generate(gs genSpec, seed int64) (*stream, error) {
	r := rand.New(rand.NewSource(trajectorySeed))
	jit := rand.New(rand.NewSource(seed))
	pool := workload.BingLike(trajectorySeed)
	workload.ScaleToBmax(pool, gs.bmax)
	spec := topology.PaperSpec()
	slots := float64(spec.Servers() * spec.SlotsPerServer)
	const meanDwell = 1.0
	lambda := gs.load * slots / (workload.MeanSize(pool) * meanDwell)

	type event struct {
		at  float64
		seq int
		op  op
	}
	var events []event
	add := func(at float64, o op) error {
		if gs.bodies && o.graph != nil {
			b, err := json.Marshal(struct {
				TAG *tag.Graph `json:"tag"`
			}{o.graph})
			if err != nil {
				return fmt.Errorf("encoding %s body: %w", o.kind, err)
			}
			o.body = b
		}
		events = append(events, event{at, len(events), o})
		return nil
	}
	var clock, warmAt, lastArrival float64
	for i := 0; i < gs.arrivals; i++ {
		clock += r.ExpFloat64() / lambda
		g := pool[r.Intn(len(pool))]
		life := r.ExpFloat64() * meanDwell
		resize := gs.resizeProb > 0 && r.Float64() < gs.resizeProb
		var ng *tag.Graph
		if resize {
			var err error
			if ng, err = resized(r, g); err != nil {
				return nil, err
			}
		}

		at := clock + (jit.Float64()*4-2)/lambda
		if at < 0 {
			at = 0
		}
		life *= 0.9 + 0.2*jit.Float64()
		if i == gs.warm {
			warmAt = at
		}
		if at > lastArrival {
			lastArrival = at
		}
		if err := add(at, op{kind: opAdmit, tenant: i, graph: g}); err != nil {
			return nil, err
		}
		if resize {
			if err := add(at+jit.Float64()*life, op{kind: opResize, tenant: i, graph: ng}); err != nil {
				return nil, err
			}
		}
		if err := add(at+life, op{kind: opRelease, tenant: i}); err != nil {
			return nil, err
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].seq < events[b].seq
	})
	st := &stream{ops: make([]op, len(events)), arrivals: gs.arrivals}
	for i, ev := range events {
		st.ops[i] = ev.op
		if ev.at < warmAt {
			st.warm = i + 1
		}
		if ev.at <= lastArrival {
			st.tail = i + 1
		}
	}
	return st, nil
}

// resized returns g with one uniformly chosen internal tier scaled by
// a factor from {0.5, 1.5, 2} — sim.Churn's elastic-scaling step.
func resized(r *rand.Rand, g *tag.Graph) (*tag.Graph, error) {
	var resizable []int
	for t := 0; t < g.Tiers(); t++ {
		if !g.Tier(t).External {
			resizable = append(resizable, t)
		}
	}
	t := resizable[r.Intn(len(resizable))]
	factor := []float64{0.5, 1.5, 2}[r.Intn(3)]
	n := g.TierSize(t)
	newN := int(float64(n) * factor)
	if newN < 1 {
		newN = 1
	}
	if newN == n {
		newN = n + 1
	}
	ng, err := g.WithTierSize(t, newN)
	if err != nil {
		return nil, fmt.Errorf("resizing tier %d of %s: %w", t, g.Name, err)
	}
	return ng, nil
}

// digest hashes the stream's requests, for the determinism tests.
func (st *stream) digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, o := range st.ops {
		binary.LittleEndian.PutUint32(buf[:4], uint32(o.tenant))
		buf[4] = byte(o.kind)
		h.Write(buf[:5])
		if o.graph != nil {
			b, _ := o.graph.MarshalJSON() // cannot fail: the graph came from the validated pool
			h.Write(b)
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(st.warm))
	binary.LittleEndian.PutUint32(buf[4:], uint32(st.tail))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
