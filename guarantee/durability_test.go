package guarantee

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cloudmirror/internal/tag"
)

// The crash-recovery determinism contract: a service recovered from
// its write-ahead log mid-churn must produce byte-identical admission
// traces and final state to the same service running uninterrupted.
// The churn script is generated up front with draws independent of
// outcomes, so both runs execute the same operations; handles are kept
// sorted by (shard, key) — the order Durability.Grants restores — so
// resize/release targeting survives the crash.

// churnOp is one scripted lifecycle operation.
type churnOp struct {
	kind int // 0 admit, 1 resize, 2 release, 3 malformed admit
	a, b int
	s, r float64
	pick int
	id   int64
}

// churnScript pre-generates a deterministic operation mix. Every
// random draw happens here, never during execution, so the script is
// identical regardless of operation outcomes.
func churnScript(n int, seed int64) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, n)
	for i := range ops {
		op := churnOp{
			a:    1 + rng.Intn(4),
			b:    1 + rng.Intn(3),
			s:    float64(50 + rng.Intn(200)),
			r:    float64(25 + rng.Intn(100)),
			pick: rng.Intn(1 << 20),
			id:   int64(i + 1),
		}
		switch k := rng.Intn(10); {
		case k < 5:
			op.kind = 0
		case k < 7:
			op.kind = 1
		case k < 9:
			op.kind = 2
		default:
			op.kind = 3
		}
		ops[i] = op
	}
	return ops
}

// churnGraph builds a two-tier TAG with the op's sizes and guarantees.
func churnGraph(name string, a, b int, s, r float64) *tag.Graph {
	g := tag.New(name)
	ta := g.AddTier("web", a)
	tb := g.AddTier("db", b)
	g.AddBidirectional(ta, tb, s, r)
	return g
}

// handle pairs a live grant with the edge guarantees its TAG carries
// (a resize must keep them — only tier sizes may change). The slice is
// kept sorted by (shard, key) so it can be re-zipped with
// Durability.Grants after a recovery.
type handle struct {
	g    Grant
	name string
	s, r float64
}

func insertHandle(live []*handle, h *handle) []*handle {
	i := sort.Search(len(live), func(i int) bool {
		if live[i].g.Shard() != h.g.Shard() {
			return live[i].g.Shard() > h.g.Shard()
		}
		return live[i].g.Key() > h.g.Key()
	})
	live = append(live, nil)
	copy(live[i+1:], live[i:])
	live[i] = h
	return live
}

// runOps executes the script slice against svc, maintaining the sorted
// live list and appending one trace line per operation.
func runOps(t *testing.T, svc Service, ops []churnOp, live []*handle, trace *[]string) []*handle {
	t.Helper()
	ctx := context.Background()
	emit := func(format string, args ...any) {
		*trace = append(*trace, fmt.Sprintf(format, args...))
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			name := fmt.Sprintf("t%d", op.id)
			g, err := svc.Admit(ctx, Request{ID: op.id, Graph: churnGraph(name, op.a, op.b, op.s, op.r)})
			if err != nil {
				emit("admit id=%d err=%s", op.id, ReasonOf(err))
				continue
			}
			live = insertHandle(live, &handle{g: g, name: name, s: op.s, r: op.r})
			emit("admit id=%d shard=%d key=%d vms=%d mbps=%016x",
				op.id, g.Shard(), g.Key(), g.Reservation().Placement().VMs(),
				math.Float64bits(g.Reservation().TotalReserved()))
		case 1:
			if len(live) == 0 {
				emit("resize skip")
				continue
			}
			h := live[op.pick%len(live)]
			err := h.g.Resize(ctx, churnGraph(h.name, op.a, op.b, h.s, h.r))
			if err != nil {
				emit("resize key=%d/%d err=%s", h.g.Shard(), h.g.Key(), ReasonOf(err))
				continue
			}
			emit("resize key=%d/%d vms=%d mbps=%016x",
				h.g.Shard(), h.g.Key(), h.g.Reservation().Placement().VMs(),
				math.Float64bits(h.g.Reservation().TotalReserved()))
		case 2:
			if len(live) == 0 {
				emit("release skip")
				continue
			}
			i := op.pick % len(live)
			h := live[i]
			h.g.Release()
			live = append(live[:i], live[i+1:]...)
			emit("release key=%d/%d", h.g.Shard(), h.g.Key())
		case 3:
			_, err := svc.Admit(ctx, Request{ID: op.id})
			emit("badmit id=%d err=%s", op.id, ReasonOf(err))
		}
	}
	return live
}

// fingerprint captures the service's complete observable state —
// counters, gauges, bit-exact ledger bytes, enforcement counters, and
// one control period's report with every live grant's per-pair rows —
// as one comparable string.
func fingerprint(t *testing.T, svc Service, live []*handle) string {
	t.Helper()
	var sb strings.Builder
	dump := func(label string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("fingerprint %s: %v", label, err)
		}
		fmt.Fprintf(&sb, "%s %s\n", label, b)
	}
	dump("stats", svc.Stats())
	dump("loads", svc.Loads())
	for i := 0; i < svc.Shards(); i++ {
		dump(fmt.Sprintf("ledger%d", i), svc.Topology(i).ExportLedger())
	}
	if enf := svc.Enforcement(); enf != nil {
		dump("enfcounters", enf.Counters())
		rep, err := enf.Step()
		if err != nil {
			t.Fatalf("enforcement step: %v", err)
		}
		// Every tenant's aggregates, plus the period's solved/components
		// counts: a recovered driver must rebuild the same link loads and
		// the same structure from scratch.
		for i, st := range rep.PerShard {
			fmt.Fprintf(&sb, "enfshard%d %+v\n", i, *st)
		}
		fmt.Fprintf(&sb, "enfagg %d %d %d %x %x %x %x %x\n",
			rep.Tenants, rep.Pairs, rep.Colocated,
			math.Float64bits(rep.GuaranteedMbps), math.Float64bits(rep.BaseMbps),
			math.Float64bits(rep.AchievedMbps), math.Float64bits(rep.SpareMbps),
			math.Float64bits(rep.MinRatio))
		// Pair by pair as well: errors that cancel in a tenant's sums must
		// not pass. Rates can be +Inf (backlogged colocated flows), which
		// JSON cannot carry; fmt renders them fine.
		for _, h := range live {
			rows, err := enf.Pairs(h.g)
			if err != nil {
				t.Fatalf("enforcement pairs of %d/%d: %v", h.g.Shard(), h.g.Key(), err)
			}
			fmt.Fprintf(&sb, "enfpairs %d/%d %v\n", h.g.Shard(), h.g.Key(), rows)
		}
	}
	return sb.String()
}

// durableOpts is the configuration both runs share: multiple shards, a
// stateful randomized dispatch policy, enforcement, and a snapshot
// interval small enough to force several rotations mid-churn.
func durableOpts(dir string) []Option {
	return []Option{
		WithAlgorithm("cm"),
		WithShards(3),
		WithPolicy("p2c"),
		WithSeed(42),
		WithEnforcement(EnforcementConfig{Alpha: 1}),
		WithDurability(dir),
		WithSnapshotEvery(7),
	}
}

// TestCrashRecoveryDeterminism is the PR's acceptance test: the
// admission trace and final state after a crash + Open recovery are
// byte-identical to an uninterrupted run of the same script.
func TestCrashRecoveryDeterminism(t *testing.T) {
	ops := churnScript(120, 7)
	crashAt := 65
	ctx := context.Background()

	// Uninterrupted reference run.
	refSvc, err := New(testSpec(), durableOpts(t.TempDir())...)
	if err != nil {
		t.Fatal(err)
	}
	var refTrace []string
	refLive := runOps(t, refSvc, ops, nil, &refTrace)
	refPrint := fingerprint(t, refSvc, refLive)
	if err := refSvc.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Crashed run: same script, killed mid-churn, recovered with Open.
	dir := t.TempDir()
	svc, err := New(testSpec(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	live := runOps(t, svc, ops[:crashAt], nil, &trace)
	svc.(*service).dur.abandon() // simulated kill: no final snapshot

	if _, err := svc.Admit(ctx, Request{ID: 999, Graph: testGraph(1, 1)}); ReasonOf(err) != ShuttingDown {
		t.Fatalf("admit on crashed service: err = %v, want shutting_down", err)
	}

	if !HasLedger(dir) {
		t.Fatal("HasLedger = false after churn")
	}
	recovered, err := Open(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer recovered.Close(ctx)

	// Rebind handles: Grants returns the live grants in (shard, key)
	// order — the order the sorted live list already has.
	grants := recovered.Durability().Grants()
	if len(grants) != len(live) {
		t.Fatalf("recovered %d live grants, want %d", len(grants), len(live))
	}
	for i, g := range grants {
		if g.Shard() != live[i].g.Shard() || g.Key() != live[i].g.Key() {
			t.Fatalf("recovered grant %d is %d/%d, want %d/%d",
				i, g.Shard(), g.Key(), live[i].g.Shard(), live[i].g.Key())
		}
		live[i].g = g
	}

	live = runOps(t, recovered, ops[crashAt:], live, &trace)
	print := fingerprint(t, recovered, live)

	if len(trace) != len(refTrace) {
		t.Fatalf("trace has %d lines, reference %d", len(trace), len(refTrace))
	}
	for i := range trace {
		if trace[i] != refTrace[i] {
			t.Fatalf("op %d diverged after recovery:\n  crashed:   %s\n  reference: %s", i, trace[i], refTrace[i])
		}
	}
	if print != refPrint {
		t.Fatalf("final state diverged after recovery:\n--- crashed ---\n%s--- reference ---\n%s", print, refPrint)
	}
}

// TestDurableMatchesInMemory: the durability layer must never perturb
// admission decisions — the same script on an in-memory service gives
// the same trace and state.
func TestDurableMatchesInMemory(t *testing.T) {
	ops := churnScript(80, 11)
	opts := func() []Option {
		return []Option{
			WithAlgorithm("cm"), WithShards(3), WithPolicy("p2c"), WithSeed(42),
			WithEnforcement(EnforcementConfig{Alpha: 1}),
		}
	}

	mem, err := New(testSpec(), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	var memTrace []string
	memLive := runOps(t, mem, ops, nil, &memTrace)
	memPrint := fingerprint(t, mem, memLive)

	dur, err := New(testSpec(), append(opts(), WithDurability(t.TempDir()), WithSnapshotEvery(5))...)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close(context.Background())
	var durTrace []string
	durLive := runOps(t, dur, ops, nil, &durTrace)
	durPrint := fingerprint(t, dur, durLive)

	for i := range memTrace {
		if i >= len(durTrace) || memTrace[i] != durTrace[i] {
			t.Fatalf("op %d: durable %q, in-memory %q", i, durTrace[i], memTrace[i])
		}
	}
	if memPrint != durPrint {
		t.Fatalf("state diverged:\n--- durable ---\n%s--- in-memory ---\n%s", durPrint, memPrint)
	}
}

// TestCloseReopen: a clean Close writes a final snapshot, so reopening
// replays nothing and restores identical state; operations after
// Close reject with the typed shutting_down code.
func TestCloseReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	svc, err := New(testSpec(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := svc.Admit(ctx, Request{ID: 1, Graph: testGraph(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	wantShard, wantKey := g.Shard(), g.Key()
	stats := svc.Stats()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := svc.Admit(ctx, Request{ID: 2, Graph: testGraph(1, 1)}); ReasonOf(err) != ShuttingDown {
		t.Fatalf("admit after close: err = %v, want shutting_down", err)
	}
	if err := svc.Durability().Snapshot(); ReasonOf(err) != ShuttingDown {
		t.Fatalf("snapshot after close: err = %v, want shutting_down", err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close(ctx)
	if st := re.Durability().Stats(); st.Records != 0 {
		t.Fatalf("clean close left %d unsnapshotted records", st.Records)
	}
	grants := re.Durability().Grants()
	if len(grants) != 1 || grants[0].Shard() != wantShard || grants[0].Key() != wantKey {
		t.Fatalf("recovered grants = %v, want one at %d/%d", grants, wantShard, wantKey)
	}
	// Stats contains a slice; compare via Sprint.
	if got := re.Stats(); fmt.Sprint(got) != fmt.Sprint(stats) {
		t.Fatalf("recovered stats = %+v, want %+v", got, stats)
	}
	grants[0].Release()
	for _, ld := range re.Loads() {
		if ld.Tenants != 0 {
			t.Fatalf("release after recovery left load %+v", ld)
		}
	}
}

// TestNewRefusesExistingLedger: New must not silently overwrite a
// ledger a previous service wrote — that is Open's job.
func TestNewRefusesExistingLedger(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(testSpec(), WithAlgorithm("cm"), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(testSpec(), WithAlgorithm("cm"), WithDurability(dir)); ReasonOf(err) != InvalidRequest {
		t.Fatalf("New over existing ledger: err = %v, want invalid_request", err)
	}
}
