package dataplane

import (
	"math"
	"math/rand"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// These tests hold the closed-form solve of a slack component to the
// general RA/max-min path, Float64bits for Float64bits, through the
// stepBothWays hook: targets (through the limits they step toward),
// limits, rates, report aggregates, the settled flag and the moved
// value.

var slackAlphas = []float64{1, 0.5, 0.3}

// stepCompared runs one period through stepBothWays and fails on the
// first difference.
func stepCompared(t *testing.T, d *Driver, what string) (*StepStats, int) {
	t.Helper()
	st, n, err := d.stepBothWays()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return st, n
}

// settleCompared steps until a period solves nothing or limit periods
// have run, comparing every slack solve, and returns how many it
// compared. A limiter stepping toward 0 at alpha < 1 crosses the
// subnormals for a thousand periods; the limit keeps that short.
func settleCompared(t *testing.T, d *Driver, what string, limit int) int {
	t.Helper()
	compared := 0
	for i := 0; i < limit; i++ {
		st, n := stepCompared(t, d, what)
		compared += n
		if st.Solved == 0 {
			break
		}
	}
	return compared
}

// hoseTenant admits a one-tier hose tenant with guarantee g, one VM per
// listed server.
func hoseTenant(key int64, tree *topology.Tree, g float64, d *Driver, servers ...int) {
	gr := tag.New("hose")
	gr.AddSelfLoop(gr.AddTier("a", len(servers)), g)
	pl := make(place.Placement)
	for _, s := range servers {
		pl.Add(tree.Servers()[s], 1, 0, 1)
	}
	d.Publish(admitEvent(key, gr, pl))
}

// targetRounds reports whether RA's target base + (d − base) differs
// from d in its bits.
func targetRounds(d, g float64) bool {
	base := min(d, g)
	return !feq(base+(d-base), d)
}

func TestDifferentialSlackCertificate(t *testing.T) {
	t.Run("random slack tenants", func(t *testing.T) {
		compared, contended := 0, 0
		for _, alpha := range slackAlphas {
			for seed := int64(1); seed <= 4; seed++ {
				tree := diffTopo()
				d, err := New(tree, Config{Alpha: alpha})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				redeclare := func(key int64) {
					var ds []Demand
					for _, dm := range defaultDemands(d.tenants[key].bind.Deployment()) {
						switch rng.Intn(6) {
						case 0:
							continue
						case 1:
							dm.Mbps = 0
						case 2:
							dm.Mbps = rng.Float64() * 600 // may contend
						default:
							dm.Mbps = rng.Float64() * 90
						}
						ds = append(ds, dm)
					}
					if err := d.SetDemand(key, ds); err != nil {
						t.Fatal(err)
					}
				}
				const tenants = 10
				for key := int64(1); key <= tenants; key++ {
					g := diffGraph(rng, int(key))
					d.Publish(admitEvent(key, g, diffPlace(rng, tree, g)))
					redeclare(key)
				}
				for period := 0; period < 30; period++ {
					if period%6 == 5 {
						for k := rng.Intn(4); k >= 0; k-- {
							redeclare(1 + rng.Int63n(tenants))
						}
					}
					st, n := stepCompared(t, d, "random fleet")
					compared += n
					contended += st.Contended
				}
			}
		}
		if compared == 0 || contended == 0 {
			t.Fatalf("compared %d slack solves beside %d contended components; want both", compared, contended)
		}
	})

	t.Run("load at the contended threshold", func(t *testing.T) {
		capacity := 1000.0
		threshold := capacity*(1-contendedRel) - contendedAbs
		for _, alpha := range slackAlphas {
			tree := rackTree(2, 2, capacity, capacity)
			d, err := New(tree, Config{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			admitPair(1, tree, 0, 2, d) // s0 → s2 across both ToRs
			band := 0
			load := math.Nextafter(threshold, math.Inf(1))
			for ulps := -1; ulps <= 3; ulps++ {
				send(t, 1, load, d)
				st, n := stepCompared(t, d, "threshold")
				if wantSlack := ulps >= 0; (n == 1) != wantSlack || (st.Contended == 0) != wantSlack {
					t.Fatalf("alpha %v, load %v (%d ulps under the threshold): %d compared, %d contended",
						alpha, load, ulps, n, st.Contended)
				}
				settleCompared(t, d, "threshold", 150)
				// A rate equal to the threshold means the achieved-rates
				// solve saw a cap sum the strict fits test refuses: its
				// event loop ran, and still matched the closed form.
				if feq(pairsOf(t, d, 1)[0].Rate, threshold) {
					band++
				}
				load = math.Nextafter(load, 0)
			}
			if band == 0 {
				t.Errorf("alpha %v: no solve ran in the fits test's rounding band", alpha)
			}
		}
	})

	t.Run("demand against guarantee", func(t *testing.T) {
		for _, alpha := range slackAlphas {
			tree := rackTree(2, 2, 1000, 1000)
			d, err := New(tree, Config{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			hoseTenant(1, tree, 100.0/3, d, 0, 2)
			send(t, 1, 10, d)
			settleCompared(t, d, "first declaration", 150)
			g := pairsOf(t, d, 1)[0].Guarantee
			rounds := math.NaN()
			for k := 7; k < 400; k++ {
				if dm := g * float64(k) / 3; targetRounds(dm, g) {
					rounds = dm
					break
				}
			}
			if math.IsNaN(rounds) {
				t.Fatalf("no demand found whose RA target rounds off it (guarantee %v)", g)
			}
			for _, dm := range []float64{
				0, math.Copysign(0, -1), g / 2, math.Nextafter(g, 0), g,
				math.Nextafter(g, math.Inf(1)), 3 * g, rounds, 700,
			} {
				send(t, 1, dm, d)
				if n := settleCompared(t, d, "demand", 150); n == 0 {
					t.Fatalf("alpha %v demand %v: nothing compared", alpha, dm)
				}
			}
		}
	})

	t.Run("NaN and zero limits", func(t *testing.T) {
		for _, alpha := range slackAlphas {
			tree := rackTree(2, 2, 1000, 1000)
			d, err := New(tree, Config{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			hoseTenant(1, tree, 0.1, d, 0, 1, 2)
			if err := d.SetDemand(1, []Demand{{Src: 0, Dst: 1, Mbps: 5}, {Src: 0, Dst: 2, Mbps: 0.05}, {Src: 2, Dst: 1, Mbps: 0.7}}); err != nil {
				t.Fatal(err)
			}
			settleCompared(t, d, "limits", 150)
			tn := d.tenants[1]
			for _, poke := range []float64{0, math.NaN(), 0.01} {
				for j := range tn.limits {
					tn.limits[j] = poke
				}
				tn.dirty = true
				if n := settleCompared(t, d, "poked limits", 150); n == 0 {
					t.Fatalf("alpha %v limits %v: nothing compared", alpha, poke)
				}
			}
		}
	})

	t.Run("all pairs colocated", func(t *testing.T) {
		for _, alpha := range slackAlphas {
			tree := topology.New(topology.Spec{
				SlotsPerServer: 3,
				Levels:         []topology.LevelSpec{{Name: "server", Fanout: 2, Uplink: 1000}},
			})
			d, err := New(tree, Config{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			g := tag.New("local")
			g.AddSelfLoop(g.AddTier("a", 3), 100)
			pl := make(place.Placement)
			pl.Add(tree.Servers()[1], 1, 0, 3)
			d.Publish(admitEvent(1, g, pl))
			if err := d.SetDemand(1, []Demand{{Src: 0, Dst: 1, Mbps: 40}, {Src: 2, Dst: 0, Mbps: GreedyDemand}}); err != nil {
				t.Fatal(err)
			}
			st, n := stepCompared(t, d, "colocated")
			if n != 1 || st.Pairs != 0 || st.Colocated != 2 || st.Contended != 0 {
				t.Fatalf("alpha %v: %d compared over %d+%d pairs, %d contended; want 1 over 0+2, 0",
					alpha, n, st.Pairs, st.Colocated, st.Contended)
			}
		}
	})
}

// FuzzSlackSolve holds the closed form to the general path on a fuzzed
// hose tenant — its guarantee, three offered loads, a bystander
// sharing its ToR uplink, alpha, and limits poked to NaN or zero — over
// a few periods. Loads that contend take the general path alone.
func FuzzSlackSolve(f *testing.F) {
	capacity := 1000.0
	threshold := capacity*(1-contendedRel) - contendedAbs
	f.Add(100.0, 300.0, 200.0, 100.0, 500.0, uint8(0), uint8(0))
	f.Add(100.0/3, threshold, 0.0, 0.0, 0.0, uint8(1), uint8(1))
	f.Add(0.1, 0.7, math.Copysign(0, -1), 0.1, 999.0, uint8(2), uint8(2))
	f.Add(33.3, 100.7, 33.3, 0.0, threshold-400.7, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, hose, d0, d1, d2, bystander float64, alphaSel, limits uint8) {
		// Admission would refuse more: the tenant's ToR uplink also
		// carries the bystander's 100 Mbps hose.
		if !(hose >= 0 && hose <= 900) {
			return
		}
		tree := rackTree(3, 2, 1000, 1000)
		d, err := New(tree, Config{Alpha: slackAlphas[int(alphaSel)%len(slackAlphas)]})
		if err != nil {
			t.Fatal(err)
		}
		hoseTenant(1, tree, hose, d, 0, 1, 3)
		admitPair(2, tree, 2, 4, d)
		if d.SetDemand(1, []Demand{{Src: 0, Dst: 1, Mbps: d1}, {Src: 0, Dst: 2, Mbps: d0}, {Src: 1, Dst: 2, Mbps: d1}, {Src: 2, Dst: 0, Mbps: d2}}) != nil ||
			d.SetDemand(2, []Demand{{Src: 0, Dst: 1, Mbps: bystander}}) != nil {
			return
		}
		for period := 0; period < 4; period++ {
			if period == 2 && limits%3 != 0 {
				poke := 0.0
				if limits%3 == 1 {
					poke = math.NaN()
				}
				for _, tn := range d.order {
					for j := range tn.limits {
						tn.limits[j] = poke
					}
					tn.dirty = true
				}
			}
			stepCompared(t, d, "fuzzed fleet")
		}
	})
}
