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
	"cloudmirror/internal/place/cloudmirror"
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

// admitterTarget drives a bare admitter that prices every tenant by
// modelFor's translation of its TAG.
func admitterTarget(adm *place.Admitter, modelFor func(*tag.Graph) place.Model) diffTarget {
	req := func(id int64, g *tag.Graph) *place.Request {
		return &place.Request{ID: id, Graph: g, Model: modelFor(g)}
	}
	return diffTarget{
		admit: func(id int64, g *tag.Graph) (diffGrant, error) {
			ad, err := adm.Place(req(id, g))
			if err != nil {
				return nil, err
			}
			return ad, nil
		},
		batch: func(id int64, gs []*tag.Graph) []diffGrant {
			reqs := make([]*place.Request, len(gs))
			for j, g := range gs {
				reqs[j] = req(id+int64(j), g)
			}
			ads, _ := adm.AdmitBatch(reqs)
			out := make([]diffGrant, len(ads))
			for j, ad := range ads {
				if ad != nil {
					out[j] = ad
				}
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
			// Batch admission through the coalesced path: the batch
			// must decide exactly as sequential admission would.
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
// must be observationally identical for every placer × seed
// combination. The "planners=0" name level is kept from when a second
// admission path existed; it is the one Admitter.
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

// TestBatchMatchesSequential pins the batch-coalescing contract at the
// place layer: AdmitBatch must produce the same decisions and the same
// final ledger as admitting the elements one by one, and batch errors
// must carry the failing element's index.
func TestBatchMatchesSequential(t *testing.T) {
	pool := workload.BingLike(5)
	workload.ScaleToBmax(pool, 800)

	build := func() *place.Admitter {
		tree := topology.New(diffSpec())
		return place.NewAdmitter(tree, cloudmirror.New(tree))
	}

	reqs := make([]*place.Request, 40)
	for i := range reqs {
		reqs[i] = &place.Request{ID: int64(i), Graph: pool[i%len(pool)], Model: pool[i%len(pool)]}
	}

	seq := build()
	var seqOut []string
	for i, req := range reqs {
		_, err := seq.Place(req)
		seqOut = append(seqOut, fmt.Sprintf("%d %v", i, place.ReasonOf(err)))
	}

	bat := build()
	grants, errs := bat.AdmitBatch(reqs)
	for i := range reqs {
		got := fmt.Sprintf("%d %v", i, place.ReasonOf(errs[i]))
		if got != seqOut[i] {
			t.Errorf("batch element %d: %s, sequential: %s", i, got, seqOut[i])
		}
		if errs[i] != nil {
			if grants[i] != nil {
				t.Errorf("element %d: error and grant both set", i)
			}
			if bi := place.BatchIndexOf(errs[i]); bi != i {
				t.Errorf("element %d: BatchIndexOf = %d, want %d", i, bi, i)
			}
		}
	}
	seqBits := ledgerBits(seq.ExportLedger())
	batBits := ledgerBits(bat.ExportLedger())
	if seqBits != batBits {
		t.Error("batch and sequential admission produced different ledgers")
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
