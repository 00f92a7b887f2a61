package place_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cloudmirror/guarantee"
	"cloudmirror/internal/experiments"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

// Differential harness for the topology free-capacity index: for every
// placer and seed, the same churn+resize trace is run
// twice — once with the index on (the default) and once with the pure
// rescan path (Tree.SetIndexed(false) before the first operation) — and
// everything observable must be byte-identical: admission outcomes,
// rejection reasons, resize outcomes, admission stats, and the final
// ledger compared at the Float64bits level. The index's only permitted
// effect is skipping scans that provably cannot succeed; any divergence
// here is an index soundness bug. CloudMirror runs through the
// guarantee service; the baselines, whose pruning reads the index too,
// run through a bare admitter pricing each tenant by its translated
// model, the way the simulator drives them.

// diffSpec is a deliberately tight topology (72 servers, constrained
// uplinks) so the trace produces a healthy mix of admissions and
// capacity rejections — a trace with no rejections would never exercise
// the pruning decisions the harness exists to compare.
func diffSpec() topology.Spec {
	return topology.Spec{
		SlotsPerServer: 8,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 6, Uplink: 4_000},
			{Name: "tor", Fanout: 4, Uplink: 8_000},
			{Name: "agg", Fanout: 3, Uplink: 6_000},
		},
	}
}

// diffGrant is one admitted tenant of a trace.
type diffGrant interface {
	Resize(*tag.Graph) error
	Release() bool
}

// diffTarget is what a trace drives: admission of one tenant or a
// batch (nil grants for refusals), and the admission counters.
type diffTarget struct {
	admit func(id int64, g *tag.Graph) (diffGrant, error)
	batch func(id int64, gs []*tag.Graph) []diffGrant
	stats func() place.AdmitStats
}

// serviceGrant adapts a guarantee.Grant to diffGrant.
type serviceGrant struct{ guarantee.Grant }

func (g serviceGrant) Resize(ng *tag.Graph) error { return g.Grant.Resize(context.Background(), ng) }

func (g serviceGrant) Release() bool { g.Grant.Release(); return true }

// serviceTarget drives a one-shard guarantee service.
func serviceTarget(svc guarantee.Service) diffTarget {
	ctx := context.Background()
	return diffTarget{
		admit: func(id int64, g *tag.Graph) (diffGrant, error) {
			grant, err := svc.Admit(ctx, guarantee.Request{ID: id, Graph: g})
			if err != nil {
				return nil, err
			}
			return serviceGrant{grant}, nil
		},
		batch: func(id int64, gs []*tag.Graph) []diffGrant {
			reqs := make([]guarantee.Request, len(gs))
			for j, g := range gs {
				reqs[j] = guarantee.Request{ID: id + int64(j), Graph: g}
			}
			grants, _ := svc.AdmitBatch(ctx, reqs)
			out := make([]diffGrant, len(grants))
			for j, g := range grants {
				if g != nil {
					out[j] = serviceGrant{g}
				}
			}
			return out
		},
		stats: func() place.AdmitStats { return svc.Stats().PerShard[0] },
	}
}

// admittedGrant adapts a place.Admitted to diffGrant.
type admittedGrant struct{ *place.Admitted }

func (g admittedGrant) Resize(ng *tag.Graph) error {
	_, err := g.Admitted.Resize(ng)
	return err
}

func (g admittedGrant) Release() bool { return g.Admitted.Release().Kind != 0 }

// admitterTarget drives a bare admitter that prices every tenant by
// modelFor's translation of its TAG. It has no batch path: a batch is
// its elements admitted one after another.
func admitterTarget(adm *place.Admitter, modelFor func(*tag.Graph) place.Model) diffTarget {
	admit := func(id int64, g *tag.Graph) (diffGrant, error) {
		ad, _, err := adm.Place(&place.Request{ID: id, Graph: g, Model: modelFor(g)})
		if err != nil {
			return nil, err
		}
		return admittedGrant{ad}, nil
	}
	return diffTarget{
		admit: admit,
		batch: func(id int64, gs []*tag.Graph) []diffGrant {
			out := make([]diffGrant, len(gs))
			for j, g := range gs {
				out[j], _ = admit(id+int64(j), g)
			}
			return out
		},
		stats: adm.Stats,
	}
}

// diffTrace drives a deterministic admission/release/resize trace
// against target and returns a printable transcript. Every random draw
// comes from one seeded RNG, so equal (alg, seed) configs see
// the identical op sequence regardless of the index setting. audit, when
// non-nil, is called periodically to verify index invariants mid-trace.
func diffTrace(t *testing.T, target diffTarget, seed int64, resize bool, audit func() error) string {
	t.Helper()
	pool := workload.BingLike(seed)
	workload.ScaleToBmax(pool, 800)
	r := rand.New(rand.NewSource(seed))

	var sb strings.Builder
	type liveTenant struct {
		grant diffGrant
		graph *tag.Graph
	}
	var live []*liveTenant

	outcome := func(err error) string {
		if err == nil {
			return "ok"
		}
		return string(guarantee.ReasonOf(err))
	}

	const ops = 240
	for i := 0; i < ops; i++ {
		switch {
		case i%10 == 9:
			// Batch admission: the batch must decide exactly as
			// sequential admission would.
			gs := make([]*tag.Graph, 3)
			for j := range gs {
				gs[j] = pool[r.Intn(len(pool))]
			}
			for j, g := range target.batch(int64(i*10), gs) {
				if g != nil {
					fmt.Fprintf(&sb, "batch %d.%d ok\n", i, j)
					live = append(live, &liveTenant{grant: g, graph: gs[j]})
				} else {
					fmt.Fprintf(&sb, "batch %d.%d reject\n", i, j)
				}
			}
		case len(live) > 0 && r.Float64() < 0.25:
			k := r.Intn(len(live))
			live[k].grant.Release()
			fmt.Fprintf(&sb, "release %d\n", k)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case resize && len(live) > 0 && r.Float64() < 0.3:
			k := r.Intn(len(live))
			ten := live[k]
			tier := r.Intn(ten.graph.Tiers())
			if ten.graph.Tier(tier).External {
				fmt.Fprintf(&sb, "resize %d skip-external\n", k)
				continue
			}
			n := ten.graph.TierSize(tier)
			newN := n + 1 + r.Intn(3)
			if r.Float64() < 0.5 && n > 1 {
				newN = n - 1
			}
			ng, gerr := ten.graph.WithTierSize(tier, newN)
			if gerr != nil {
				t.Fatalf("resize graph: %v", gerr)
			}
			err := ten.grant.Resize(ng)
			fmt.Fprintf(&sb, "resize %d t%d %d->%d %s\n", k, tier, n, newN, outcome(err))
			if err == nil {
				ten.graph = ng
			}
		default:
			g := pool[r.Intn(len(pool))]
			grant, err := target.admit(int64(i), g)
			fmt.Fprintf(&sb, "admit %d %s\n", i, outcome(err))
			if err == nil {
				live = append(live, &liveTenant{grant: grant, graph: g})
			}
		}
		if audit != nil && i%16 == 15 {
			if err := audit(); err != nil {
				t.Fatalf("index audit failed at op %d: %v", i, err)
			}
		}
	}
	st := target.stats()
	fmt.Fprintf(&sb, "stats admitted=%d rejected=%d failed=%d released=%d resized=%d\n",
		st.Admitted, st.Rejected, st.Failed, st.Released, st.Resized)
	return sb.String()
}

// ledgerBits renders a ledger with every float64 as its exact bit
// pattern, so comparing transcripts compares ledgers byte-exactly.
func ledgerBits(l topology.Ledger) string {
	var sb strings.Builder
	for i, v := range l.Out {
		fmt.Fprintf(&sb, "o%d:%x ", i, math.Float64bits(v))
	}
	for i, v := range l.In {
		fmt.Fprintf(&sb, "i%d:%x ", i, math.Float64bits(v))
	}
	for i, v := range l.Slots {
		fmt.Fprintf(&sb, "s%d:%d ", i, v)
	}
	for d, res := range l.Res {
		for i, v := range res {
			fmt.Fprintf(&sb, "r%d.%d:%x ", d, i, math.Float64bits(v))
		}
	}
	return sb.String()
}

// runDiff runs the trace for one algorithm and index setting and
// returns the full observable transcript: op outcomes plus the final
// ledger in bit-exact form.
func runDiff(t *testing.T, alg string, seed int64, indexed bool) string {
	t.Helper()
	var (
		tree   *topology.Tree
		target diffTarget
	)
	if alg == "cm" {
		svc, err := guarantee.New(diffSpec(), guarantee.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(context.Background())
		tree, target = svc.Topology(0), serviceTarget(svc)
	} else {
		a, err := experiments.AlgorithmByName(alg)
		if err != nil {
			t.Fatal(err)
		}
		tree = topology.New(diffSpec())
		target = admitterTarget(place.NewAdmitter(tree, a.NewPlacer(tree)), a.ModelFor)
	}
	tree.SetIndexed(indexed)
	var audit func() error
	if indexed {
		audit = tree.IndexAudit
	}
	// Resize requires TAG-native pricing; ovoc and secondnet tenants
	// are admitted under translated models and reject Resize.
	resize := alg == "cm"
	trace := diffTrace(t, target, seed, resize, audit)
	return trace + "ledger " + ledgerBits(tree.ExportLedger()) + "\n"
}

// TestIndexDifferential is the harness proper: indexed and rescan runs
// must be observationally identical for every placer and seed. The
// "planners=0" name level is kept from when a second admission path
// existed; it is the one Admitter.
func TestIndexDifferential(t *testing.T) {
	for _, alg := range []string{"cm", "ovoc", "secondnet"} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/planners=0/seed=%d", alg, seed), func(t *testing.T) {
				withIdx := runDiff(t, alg, seed, true)
				rescan := runDiff(t, alg, seed, false)
				if withIdx != rescan {
					t.Fatalf("indexed and rescan runs diverged:\n%s", firstDiff(withIdx, rescan))
				}
			})
		}
	}
}

// TestIndexRebuildMatchesIncremental verifies the maintenance contract
// directly: after a full trace of deltas and snapshot rollbacks, an
// exact rebuild must produce bounds that are <= the incrementally
// maintained ones (never tighter the wrong way: the live bounds must
// dominate) and the audit invariant must hold throughout.
func TestIndexRebuildMatchesIncremental(t *testing.T) {
	svc, err := guarantee.New(diffSpec(), guarantee.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	tree := svc.Topology(0)
	diffTrace(t, serviceTarget(svc), 3, true, tree.IndexAudit)

	live := tree.IndexSnapshot()
	tree.IndexRebuild()
	exact := tree.IndexSnapshot()
	for l := range exact.MaxSlots {
		if live.MaxSlots[l] < exact.MaxSlots[l] {
			t.Errorf("level %d: live slots bound %d below exact max %d", l, live.MaxSlots[l], exact.MaxSlots[l])
		}
		if live.MaxOut[l] < exact.MaxOut[l] || live.MaxIn[l] < exact.MaxIn[l] {
			t.Errorf("level %d: live bw bound (%g,%g) below exact (%g,%g)",
				l, live.MaxOut[l], live.MaxIn[l], exact.MaxOut[l], exact.MaxIn[l])
		}
	}
	if err := tree.IndexAudit(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMatchesSequential pins the batch contract at the service:
// AdmitBatch must decide every element exactly as admitting the
// elements one by one with Admit does — same rejection reasons, same
// counters, same ledgers bit for bit — on one shard and on three, in
// memory and durably, and every element error must carry its batch
// index.
func TestBatchMatchesSequential(t *testing.T) {
	pool := workload.BingLike(5)
	workload.ScaleToBmax(pool, 800)
	ctx := context.Background()

	for _, shards := range []int{1, 3} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/durable=%v", shards, durable), func(t *testing.T) {
				build := func() guarantee.Service {
					opts := []guarantee.Option{guarantee.WithShards(shards), guarantee.WithPolicy("p2c"), guarantee.WithSeed(5)}
					if durable {
						opts = append(opts, guarantee.WithDurability(t.TempDir()))
					}
					svc, err := guarantee.New(diffSpec(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { svc.Close(ctx) })
					return svc
				}
				// Enough tenants to fill every shard, so the batch meets
				// capacity rejections.
				reqs := make([]guarantee.Request, 40*shards)
				for i := range reqs {
					reqs[i] = guarantee.Request{ID: int64(i), Graph: pool[i%len(pool)]}
				}

				seq := build()
				want := make([]guarantee.Reason, len(reqs))
				for i, req := range reqs {
					_, err := seq.Admit(ctx, req)
					want[i] = guarantee.ReasonOf(err)
				}

				bat := build()
				grants, err := bat.AdmitBatch(ctx, reqs)
				got := make([]guarantee.Reason, len(reqs))
				var elemErrs []error
				if err != nil {
					elemErrs = err.(interface{ Unwrap() []error }).Unwrap()
				}
				for _, e := range elemErrs {
					i := guarantee.BatchIndexOf(e)
					if i < 0 || i >= len(reqs) || got[i] != "" {
						t.Fatalf("error %v: BatchIndexOf = %d, not a distinct element", e, i)
					}
					if !strings.HasPrefix(e.Error(), fmt.Sprintf("request %d: ", i)) {
						t.Errorf("element %d's error names another element: %v", i, e)
					}
					got[i] = guarantee.ReasonOf(e)
				}
				rejected := 0
				for i := range reqs {
					if got[i] != want[i] {
						t.Errorf("element %d: batch %q, sequential %q", i, got[i], want[i])
					}
					if (grants[i] == nil) != (got[i] != "") {
						t.Errorf("element %d: grant %v with reason %q", i, grants[i], got[i])
					}
					if got[i] != "" {
						rejected++
					}
				}
				if rejected == 0 {
					t.Error("no element rejected: the batch never met capacity")
				}
				if s, b := fmt.Sprint(seq.Stats()), fmt.Sprint(bat.Stats()); s != b {
					t.Errorf("stats: batch %s, sequential %s", b, s)
				}
				for sh := 0; sh < shards; sh++ {
					if ledgerBits(seq.Topology(sh).ExportLedger()) != ledgerBits(bat.Topology(sh).ExportLedger()) {
						t.Errorf("shard %d: batch and sequential admission produced different ledgers", sh)
					}
				}
			})
		}
	}
}

// firstDiff locates the first line where two transcripts diverge.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  indexed: %s\n  rescan:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("transcript lengths differ: %d vs %d lines", len(la), len(lb))
}
