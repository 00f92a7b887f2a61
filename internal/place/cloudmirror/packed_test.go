package cloudmirror

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

// The packed regime: a datacenter offered 110% of its slots, where most
// placement time goes to attempts that fail (the regime of the paper's
// Figs. 7–9 and of the lib_packed benchmark workload). The golden test
// pins every decision of such a run; the benchmark profiles it without
// the benchmark harness.

// churnOp is one step of a packed-churn stream: a tenant arrives or
// departs.
type churnOp struct {
	admit  bool
	tenant int
	graph  *tag.Graph
}

// packedChurn generates the stream: Poisson arrivals of BingLike tenants
// scaled to Bmax 1200 at 110% slot load on spec, exponential lifetimes
// with mean 1, departures interleaved in time order.
func packedChurn(spec topology.Spec, arrivals int) []churnOp {
	r := rand.New(rand.NewSource(1))
	pool := workload.BingLike(1)
	workload.ScaleToBmax(pool, 1200)
	slots := float64(spec.Servers() * spec.SlotsPerServer)
	lambda := 1.1 * slots / workload.MeanSize(pool)

	type event struct {
		at  float64
		seq int
		op  churnOp
	}
	var events []event
	var clock float64
	for i := 0; i < arrivals; i++ {
		clock += r.ExpFloat64() / lambda
		g := pool[r.Intn(len(pool))]
		life := r.ExpFloat64()
		events = append(events,
			event{clock, len(events), churnOp{admit: true, tenant: i, graph: g}},
			event{clock + life, len(events) + 1, churnOp{tenant: i}})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].seq < events[b].seq
	})
	ops := make([]churnOp, len(events))
	for i, ev := range events {
		ops[i] = ev.op
	}
	return ops
}

// packedConfig is one way of running the stream: the four of them cover
// the plain search and the three request properties under which the
// search's shortcuts must switch themselves off.
type packedConfig struct {
	name string
	spec func() topology.Spec
	opts []Option
	ha   place.HASpec
	// resources returns the per-tier per-VM demand vectors (nil: slot-only).
	resources func(g *tag.Graph) [][]float64
	// golden is the decision hash of the full stream, goldenShort of its
	// first packedShort arrivals (what -short runs).
	golden, goldenShort string
}

// packedArrivals is the length of the golden stream; under -short (and
// so under the race detector in CI) the tests replay packedShort
// arrivals, about five mean tenant lifetimes.
const (
	packedArrivals = 3000
	packedShort    = 1200
)

// packedStream returns the stream the tests replay and the hash its
// decisions must have.
func packedStream(cfg packedConfig) ([]churnOp, int, string) {
	if testing.Short() {
		return packedChurn(cfg.spec(), packedShort), packedShort, cfg.goldenShort
	}
	return packedChurn(cfg.spec(), packedArrivals), packedArrivals, cfg.golden
}

func resourceSpec() topology.Spec {
	s := topology.MediumSpec()
	s.Resources = []topology.ResourceSpec{
		{Name: "cpu", PerServer: 40},
		{Name: "mem", PerServer: 96},
	}
	return s
}

// tierResources gives tier t a demand that depends only on its index, so
// the stream stays a pure function of the seed: 1–2.5 cpu and 2–5 mem per
// VM against 40 cpu / 96 mem and 25 slots per server, which makes each of
// the three the binding one on some servers.
func tierResources(g *tag.Graph) [][]float64 {
	res := make([][]float64, g.Tiers())
	for t := range res {
		res[t] = []float64{1 + 0.5*float64(t%4), 2 + float64(t%4)}
	}
	return res
}

var packedConfigs = []packedConfig{
	{name: "plain", spec: topology.MediumSpec,
		golden:      "373336674afdd0ecfc59d45f519368e432ac11bfc7426dc918fc170353d5c0d4",
		goldenShort: "02f4723ecda8012316174e1e91b1d99b2e2d26a9cc67f932d4728267aa116bec"},
	{name: "oppHA", spec: topology.MediumSpec, opts: []Option{WithOpportunisticHA()},
		golden:      "c6c5aa6ae439b377f9c5cd1c89b682d14d189d6ffd0f5e96a81325c7bd8f2692",
		goldenShort: "0a4a53657a32e19cb7a9b323cc18749e937fa0a858df81e27952d9b725d9e416"},
	{name: "guaranteedHA", spec: topology.MediumSpec, ha: place.HASpec{RWCS: 0.5},
		golden:      "c12b17f16dbf6e103bcc99f8f77c124e8a25ad08e2a32b7bef538591b2d15ac4",
		goldenShort: "985db958a71a25918f3762824b6fabb0dd86dc17d06dcebceeab42974bccf4a0"},
	{name: "resources", spec: resourceSpec, resources: tierResources,
		golden:      "b43692b5222b5eb30f8f8dbae75bb57cc37222753ea3c0004c212c29a70b8882",
		goldenShort: "3e9c6a35ff163748b49415c3b8036d42988fcd87f4231b38457cf9e17c8304d9"},
}

// replayPacked runs the stream through a place.Admitter and returns the
// hash of every decision — outcome, placement and Float64bits of the
// reserved total — followed by the final ledger's bits, plus the number
// of admitted tenants. A non-nil probe sees every request, with the
// placer and the tree it is about to be placed on, just before it is.
func replayPacked(tb testing.TB, cfg packedConfig, ops []churnOp, probe func(*Placer, *topology.Tree, *place.Request)) (string, int) {
	tree := topology.New(cfg.spec())
	p := New(tree, cfg.opts...)
	adm := place.NewAdmitter(tree, p)
	grants := make(map[int]*place.Admitted)
	h := sha256.New()
	var buf []byte
	u32 := func(v int) { buf = binary.LittleEndian.AppendUint32(buf, uint32(v)) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	admitted := 0
	for i, o := range ops {
		buf = buf[:0]
		u32(i)
		if !o.admit {
			if g := grants[o.tenant]; g != nil {
				g.Release()
				delete(grants, o.tenant)
				buf = append(buf, 'r')
			}
			h.Write(buf)
			continue
		}
		req := &place.Request{ID: int64(o.tenant + 1), Graph: o.graph, Model: o.graph, HA: cfg.ha}
		if cfg.resources != nil {
			req.Resources = cfg.resources(o.graph)
		}
		if probe != nil {
			probe(p, tree, req)
		}
		g, err := adm.Place(req)
		if err != nil {
			buf = append(buf, 'n')
			buf = append(buf, place.ReasonOf(err)...)
			h.Write(buf)
			continue
		}
		admitted++
		grants[o.tenant] = g
		buf = append(buf, 'y')
		pl := g.Reservation().Placement()
		servers := make([]topology.NodeID, 0, len(pl))
		for s := range pl {
			servers = append(servers, s)
		}
		slices.Sort(servers)
		for _, s := range servers {
			u32(int(s))
			for _, k := range pl[s] {
				u32(k)
			}
		}
		u64(math.Float64bits(g.Reservation().TotalReserved()))
		h.Write(buf)
	}
	led := tree.ExportLedger()
	buf = buf[:0]
	for n := range led.Out {
		u64(math.Float64bits(led.Out[n]))
		u64(math.Float64bits(led.In[n]))
		u32(int(led.Slots[n]))
	}
	for _, dim := range led.Res {
		for _, v := range dim {
			u64(math.Float64bits(v))
		}
	}
	h.Write(buf)
	if st := adm.Stats(); st.Failed != 0 {
		tb.Fatalf("%s: %d failed (non-capacity) admissions", cfg.name, st.Failed)
	}
	return hex.EncodeToString(h.Sum(nil)), admitted
}

// TestPackedChurnGolden replays 3k arrivals with departures at 110% load
// in each configuration and compares the decision hash with the one
// recorded before the placement search learned to skip work it has
// proven redundant: the shortcuts may change what an attempt costs,
// never what it decides.
func TestPackedChurnGolden(t *testing.T) {
	for _, cfg := range packedConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			ops, arrivals, golden := packedStream(cfg)
			got, admitted := replayPacked(t, cfg, ops, nil)
			if admitted == 0 || admitted == arrivals {
				t.Fatalf("admitted %d of %d: the stream does not exercise both outcomes", admitted, arrivals)
			}
			if got != golden {
				t.Errorf("decision hash %s, want %s (admitted %d of %d)", got, golden, admitted, arrivals)
			}
		})
	}
}

// BenchmarkPackedChurn times the plain configuration of the golden
// stream: run it with -cpuprofile to see where a packed datacenter
// spends an admission.
func BenchmarkPackedChurn(b *testing.B) {
	cfg := packedConfigs[0]
	ops := packedChurn(cfg.spec(), packedArrivals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayPacked(b, cfg, ops, nil)
	}
}
