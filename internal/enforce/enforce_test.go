package enforce

import (
	"math"
	"math/rand"
	"testing"

	"cloudmirror/internal/netem"
	"cloudmirror/internal/tag"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// fig13 builds the Fig. 13(a) deployment: C1 (one VM X) --<450,450>--> C2
// (Z plus nSenders), with a 450 self-loop on C2.
func fig13(nSenders int) *Deployment {
	g := tag.New("fig13")
	c1 := g.AddTier("C1", 1)
	c2 := g.AddTier("C2", 1+nSenders)
	g.AddEdge(c1, c2, 450, 450)
	g.AddSelfLoop(c2, 450)
	return NewDeployment(g)
}

func TestDeploymentLayout(t *testing.T) {
	d := fig13(3)
	if d.VMs() != 5 {
		t.Fatalf("VMs = %d, want 5", d.VMs())
	}
	if d.TierOf(0) != 0 || d.TierOf(1) != 1 || d.TierOf(4) != 1 {
		t.Error("tier assignment wrong")
	}
	if len(d.TierVMs(1)) != 4 {
		t.Error("TierVMs wrong")
	}
}

func TestPairGuaranteeLookup(t *testing.T) {
	d := fig13(2)
	x, z := 0, 1 // X in C1, Z in C2
	snd, rcv, ok := d.PairGuarantee(x, z)
	if !ok || snd != 450 || rcv != 450 {
		t.Errorf("trunk guarantee = (%g,%g,%v), want (450,450,true)", snd, rcv, ok)
	}
	// Intra-C2: the self-loop hose.
	snd, rcv, ok = d.PairGuarantee(2, z)
	if !ok || snd != 450 || rcv != 450 {
		t.Errorf("self-loop guarantee = (%g,%g,%v)", snd, rcv, ok)
	}
	// Reverse direction C2→C1 has no edge.
	if _, _, ok := d.PairGuarantee(z, x); ok {
		t.Error("nonexistent hose reported ok")
	}
}

func TestPairGuaranteeParallelEdges(t *testing.T) {
	g := tag.New("par")
	a := g.AddTier("a", 1)
	b := g.AddTier("b", 1)
	g.AddEdge(a, b, 100, 50)
	g.AddEdge(a, b, 30, 20)
	d := NewDeployment(g)
	snd, rcv, ok := d.PairGuarantee(0, 1)
	if !ok || snd != 130 || rcv != 70 {
		t.Errorf("parallel edges = (%g,%g), want (130,70)", snd, rcv)
	}
}

// TestTAGPartitioningFig13: Z's two guarantees are isolated. X keeps the
// full 450 trunk guarantee however many intra-tier senders appear; the k
// intra senders split their own 450 hose.
func TestTAGPartitioningFig13(t *testing.T) {
	for k := 1; k <= 5; k++ {
		d := fig13(k)
		gp := NewTAGPartitioner(d)
		pairs := []Pair{{Src: 0, Dst: 1, Demand: netem.Greedy}} // X→Z
		for s := 0; s < k; s++ {
			pairs = append(pairs, Pair{Src: 2 + s, Dst: 1, Demand: netem.Greedy})
		}
		gs := gp.AppendPairGuarantees(nil, pairs)
		if !almostEq(gs[0], 450) {
			t.Errorf("k=%d: X→Z guarantee = %g, want 450", k, gs[0])
		}
		for s := 1; s <= k; s++ {
			if !almostEq(gs[s], 450/float64(k)) {
				t.Errorf("k=%d: intra sender %d guarantee = %g, want %g", k, s, gs[s], 450/float64(k))
			}
		}
	}
}

// TestWorkConservingRatesFig13: the full Fig. 13(b) behavior. X→Z holds
// ≈450 plus a share of the unreserved 10% for any number of intra-tier
// senders; with no competitors X takes the whole 1 Gbps link.
func TestWorkConservingRatesFig13(t *testing.T) {
	for k := 0; k <= 5; k++ {
		d := fig13(max(k, 1))
		n := netem.New()
		bottleneck := addLink(n, "to-Z", 1000)
		pairs := []Pair{{Src: 0, Dst: 1, Demand: netem.Greedy}}
		for s := 0; s < k; s++ {
			pairs = append(pairs, Pair{Src: 2 + s, Dst: 1, Demand: netem.Greedy})
		}
		paths := make([][]netem.LinkID, len(pairs))
		for i := range paths {
			paths[i] = []netem.LinkID{bottleneck}
		}
		alloc, err := WorkConservingRates(n, pairs, paths, NewTAGPartitioner(d))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		x := alloc.Rates[0]
		var c2 float64
		for _, r := range alloc.Rates[1:] {
			c2 += r
		}
		if k == 0 {
			if !almostEq(x, 1000) {
				t.Errorf("k=0: X rate = %g, want 1000 (work conservation)", x)
			}
			continue
		}
		if x < 450-1e-6 {
			t.Errorf("k=%d: X rate = %g dropped below its 450 guarantee", k, x)
		}
		if c2 < 450-1e-6 {
			t.Errorf("k=%d: C2 aggregate = %g below its 450 guarantee", k, c2)
		}
		if total := x + c2; !almostEq(total, 1000) {
			t.Errorf("k=%d: link not fully used: %g", k, total)
		}
	}
}

// TestAdmissionViolation: guarantees exceeding a link are reported.
func TestAdmissionViolation(t *testing.T) {
	d := fig13(1)
	n := netem.New()
	l := addLink(n, "tiny", 100)
	pairs := []Pair{{Src: 0, Dst: 1, Demand: netem.Greedy}}
	if _, err := WorkConservingRates(n, pairs, [][]netem.LinkID{{l}}, NewTAGPartitioner(d)); err == nil {
		t.Error("450 guarantee on 100 Mbps link accepted")
	}
}

// TestDemandBoundedWorkConservation: unused guarantee flows to others.
func TestDemandBoundedWorkConservation(t *testing.T) {
	d := fig13(1)
	n := netem.New()
	l := addLink(n, "to-Z", 1000)
	pairs := []Pair{
		{Src: 0, Dst: 1, Demand: 100},          // X uses 100 of its 450
		{Src: 2, Dst: 1, Demand: netem.Greedy}, // intra sender scavenges
	}
	paths := [][]netem.LinkID{{l}, {l}}
	alloc, err := WorkConservingRates(n, pairs, paths, NewTAGPartitioner(d))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(alloc.Rates[0], 100) || !almostEq(alloc.Rates[1], 900) {
		t.Errorf("rates = %v, want [100 900]", alloc.Rates)
	}
}

func TestPathCountMismatch(t *testing.T) {
	d := fig13(1)
	n := netem.New()
	addLink(n, "l", 1000)
	if _, err := WorkConservingRates(n, []Pair{{Src: 0, Dst: 1}}, nil, NewTAGPartitioner(d)); err == nil {
		t.Error("mismatched paths accepted")
	}
}

// TestPartitionersIgnoreDemand holds the TAG partitioner to the
// Partitioner contract: guarantees are a function of the deployment and
// the ordered (Src, Dst) sequence alone. Random pair sets over random
// TAGs must partition to the same bits whether the pairs offer nothing,
// random finite loads, or are backlogged — and on a second call of the
// same partitioner, whose counting scratch is reused.
func TestPartitionersIgnoreDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 200; it++ {
		g := tag.New("t")
		tiers := 1 + rng.Intn(3)
		for ti := 0; ti < tiers; ti++ {
			g.AddTier("tier", 1+rng.Intn(4))
			if ti > 0 && rng.Intn(4) > 0 {
				g.AddEdge(ti-1, ti, float64(1+rng.Intn(500)), float64(1+rng.Intn(500)))
			}
			if rng.Intn(2) == 0 {
				g.AddSelfLoop(ti, float64(1+rng.Intn(500))/3)
			}
		}
		dep := NewDeployment(g)
		var pairs []Pair
		for s := 0; s < dep.VMs(); s++ {
			for d := 0; d < dep.VMs(); d++ {
				if s != d && rng.Intn(3) > 0 { // TAG-permitted or not
					pairs = append(pairs, Pair{Src: s, Dst: d})
				}
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		gp := NewTAGPartitioner(dep)
		want := gp.AppendPairGuarantees(nil, pairs) // every demand zero
		for round := 0; round < 3; round++ {
			for i := range pairs {
				switch rng.Intn(3) {
				case 0:
					pairs[i].Demand = 0
				case 1:
					pairs[i].Demand = 1000 * rng.Float64()
				default:
					pairs[i].Demand = netem.Greedy
				}
			}
			got := AppendGuarantees(nil, gp, pairs)
			if len(got) != len(want) {
				t.Fatalf("iter %d: %d guarantees for %d pairs", it, len(got), len(pairs))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("iter %d: pair %+v is guaranteed %v, %v with every demand zero", it, pairs[i], got[i], want[i])
				}
			}
		}
	}
}
