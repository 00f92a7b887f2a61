package guarantee

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/wal"
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
			fmt.Fprintf(&sb, "enfshard%d %+v\n", i, shardWithRows(enf, i, st))
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

// shardRows is a shard's period outcome with its tenant rows inline. Its
// fields are ShardEnforcement's, in order, with Tenants holding the rows
// rather than their count, so %+v prints the text the fingerprints
// (and testdata/ledger-v1/fingerprint.txt) have always held.
type shardRows struct {
	Tenants                                           []TenantEnforcement
	Pairs, Colocated                                  int
	GuaranteedMbps, BaseMbps, AchievedMbps, SpareMbps float64
	MinRatio                                          float64
	Solved, Components, Contended                     int
}

// shardWithRows pairs shard i's report with the rows it was folded from,
// read through Enforcement.Tenants right after the period.
func shardWithRows(enf *Enforcement, i int, st *ShardEnforcement) shardRows {
	return shardRows{
		Tenants:        enf.Tenants(i),
		Pairs:          st.Pairs,
		Colocated:      st.Colocated,
		GuaranteedMbps: st.GuaranteedMbps,
		BaseMbps:       st.BaseMbps,
		AchievedMbps:   st.AchievedMbps,
		SpareMbps:      st.SpareMbps,
		MinRatio:       st.MinRatio,
		Solved:         st.Solved,
		Components:     st.Components,
		Contended:      st.Contended,
	}
}

// durableOpts is the configuration both runs share: multiple shards, a
// stateful randomized dispatch policy, enforcement, and a snapshot
// interval small enough to force several rotations mid-churn.
func durableOpts(dir string) []Option {
	return []Option{
		WithShards(3),
		WithPolicy("p2c"),
		WithSeed(42),
		WithEnforcement(EnforcementConfig{Alpha: 1}),
		WithDurability(dir),
		WithSnapshotEvery(7),
	}
}

// TestCrashRecoveryDeterminism: the admission trace and final state
// after a crash + Open recovery are byte-identical to an uninterrupted
// run of the same script.
func TestCrashRecoveryDeterminism(t *testing.T) {
	ops := churnScript(120, 7)
	refTrace, refPrint := uninterrupted(t, ops, durableOpts)
	trace, print := crashRun(t, ops, 65, durableOpts)
	assertSameRun(t, trace, print, refTrace, refPrint)
}

// TestCrashRecoveryEveryOp kills a 40-op churn after each op in turn,
// with snapshot rotations every 7 records and with none, so recovery
// replays every suffix length from every kind of last record. The
// script's dispatch walks fail over, and one exhausts the fleet.
func TestCrashRecoveryEveryOp(t *testing.T) {
	ops := churnScript(40, 3)
	for _, every := range []int{7, 1000} {
		opts := func(dir string) []Option { return append(durableOpts(dir), WithSnapshotEvery(every)) }
		refTrace, refPrint := uninterrupted(t, ops, opts)
		for crashAt := 0; crashAt <= len(ops); crashAt++ {
			t.Run(fmt.Sprintf("every%d/op%d", every, crashAt), func(t *testing.T) {
				trace, print := crashRun(t, ops, crashAt, opts)
				assertSameRun(t, trace, print, refTrace, refPrint)
			})
		}
	}
}

// uninterrupted runs the whole script on a fresh durable service and
// returns its trace and final fingerprint.
func uninterrupted(t *testing.T, ops []churnOp, opts func(dir string) []Option) ([]string, string) {
	t.Helper()
	svc, err := New(testSpec(), opts(t.TempDir())...)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	live := runOps(t, svc, ops, nil, &trace)
	print := fingerprint(t, svc, live)
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	return trace, print
}

// crashRun runs ops[:crashAt] on a fresh durable service, kills it (no
// final snapshot), recovers the ledger with Open, finishes the script
// on the recovered service, and returns the trace and final
// fingerprint.
func crashRun(t *testing.T, ops []churnOp, crashAt int, opts func(dir string) []Option) ([]string, string) {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	svc, err := New(testSpec(), opts(dir)...)
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
	t.Cleanup(func() { recovered.Close(ctx) })

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
	return trace, fingerprint(t, recovered, live)
}

// assertSameRun compares a recovered run with the uninterrupted one,
// op by op and then by final state.
func assertSameRun(t *testing.T, trace []string, print string, refTrace []string, refPrint string) {
	t.Helper()
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

// TestOpenV1Ledger opens a ledger the version-1 snapshot writer left,
// committed under testdata/ledger-v1: a three-shard p2c service with
// enforcement, killed with a log suffix after its last snapshot that
// holds an admission, a capacity rejection, a malformed request, a
// rejected, a zero-step and a committed resize, and a release. The
// recovered service must print the fingerprint its writer printed
// (fingerprint.txt beside the ledger), except one field: the writer
// counted its logged zero-step resize in the dataplane's Resized, and
// such a record replays as nothing.
func TestOpenV1Ledger(t *testing.T) {
	src := filepath.Join("testdata", "ledger-v1")
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "fingerprint.txt" {
			want = string(b)
			continue
		}
		// Open writes into the ledger, so it gets a copy.
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := Open(dir)
	if err != nil {
		t.Fatalf("open version-1 ledger: %v", err)
	}
	defer svc.Close(context.Background())
	var live []*handle
	for _, g := range svc.Durability().Grants() {
		live = append(live, &handle{g: g})
	}
	if got := fingerprint(t, svc, live); got != want {
		t.Fatalf("recovered state:\n%s\nwant the writer's:\n%s", got, want)
	}
}

// TestDurableMatchesInMemory: the durability layer must never perturb
// admission decisions — the same script on an in-memory service gives
// the same trace and state.
func TestDurableMatchesInMemory(t *testing.T) {
	ops := churnScript(80, 11)
	opts := func() []Option {
		return []Option{
			WithShards(3), WithPolicy("p2c"), WithSeed(42),
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

// legacyLedger writes svc's current snapshot as a fresh ledger after
// edit has rewritten its config and shard entries into the shape an
// older build wrote, and returns the ledger's directory.
func legacyLedger(t *testing.T, svc Service, edit func(cfg map[string]json.RawMessage, shards []map[string]json.RawMessage)) string {
	t.Helper()
	writer := svc.(*service)
	writer.dur.mu.Lock()
	snap, err := writer.dur.encodeSnapshot()
	writer.dur.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var doc, cfg map[string]json.RawMessage
	var shards []map[string]json.RawMessage
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["shards"], &shards); err != nil {
		t.Fatal(err)
	}
	edit(cfg, shards)
	if doc["config"], err = json.Marshal(cfg); err != nil {
		t.Fatal(err)
	}
	if doc["shards"], err = json.Marshal(shards); err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, err := wal.Create(dir, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// legacyWriter builds a durable two-shard service with a few grants
// and one capacity rejection behind it, for the legacy-ledger tests.
func legacyWriter(t *testing.T, opts ...Option) Service {
	t.Helper()
	ctx := context.Background()
	svc, err := New(testSpec(), append([]Option{WithShards(2), WithDurability(t.TempDir())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(ctx) })
	for i := 0; i < 6; i++ {
		if _, err := svc.Admit(ctx, Request{ID: int64(i), Graph: testGraph(1+i%3, 1+i%2)}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if _, err := svc.Admit(ctx, Request{ID: 99, Graph: testGraph(1000, 1)}); ReasonOf(err) == "" {
		t.Fatalf("impossible tenant: err = %v, want a typed rejection", err)
	}
	return svc
}

// assertReopened compares a service reopened from a legacy ledger with
// the service that wrote it: stats, loads, grant records and ledger
// bits, and with enforcement the next control period's report.
func assertReopened(t *testing.T, re, svc Service) {
	t.Helper()
	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	records := func(s Service) string {
		var recs []any
		for _, g := range s.Durability().Grants() {
			rec, _ := g.(*grant).ad.Record()
			recs = append(recs, rec)
		}
		return asJSON(recs)
	}
	if got, want := asJSON(re.Stats()), asJSON(svc.Stats()); got != want {
		t.Errorf("stats = %s, want %s", got, want)
	}
	if got, want := asJSON(re.Loads()), asJSON(svc.Loads()); got != want {
		t.Errorf("loads = %s, want %s", got, want)
	}
	if got, want := records(re), records(svc); got != want {
		t.Errorf("grants = %s, want %s", got, want)
	}
	for i := 0; i < svc.Shards(); i++ {
		if got, want := asJSON(re.Topology(i).ExportLedger()), asJSON(svc.Topology(i).ExportLedger()); got != want {
			t.Errorf("shard %d ledger differs from the writer's", i)
		}
	}
	if svc.Enforcement() == nil {
		return
	}
	step := func(s Service) string {
		rep, err := s.Enforcement().Step()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i, st := range rep.PerShard {
			fmt.Fprintf(&sb, "%+v\n", shardWithRows(s.Enforcement(), i, st))
		}
		fmt.Fprintf(&sb, "%d %d %d %x %x %x %x %x", rep.Tenants, rep.Pairs, rep.Colocated,
			math.Float64bits(rep.GuaranteedMbps), math.Float64bits(rep.BaseMbps),
			math.Float64bits(rep.AchievedMbps), math.Float64bits(rep.SpareMbps), math.Float64bits(rep.MinRatio))
		return sb.String()
	}
	if got, want := step(re), step(svc); got != want {
		t.Errorf("next step report:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpenLegacyPlannersSnapshot: ledgers written while services could
// run planner replicas carry "planners" in their config and one placer
// state per replica. Such a snapshot must still open, with the writer's
// ledger bits, grants and counters, and the estimator of entry 0.
func TestOpenLegacyPlannersSnapshot(t *testing.T) {
	svc := legacyWriter(t)
	dir := legacyLedger(t, svc, func(cfg map[string]json.RawMessage, shards []map[string]json.RawMessage) {
		cfg["planners"] = json.RawMessage("2")
		for i, sh := range shards {
			var states []float64
			if err := json.Unmarshal(sh["placer_states"], &states); err != nil || len(states) != 1 {
				t.Fatalf("shard %d placer_states = %s (%v), want one state", i, sh["placer_states"], err)
			}
			b, err := json.Marshal([]float64{states[0], states[0] + 123.5})
			if err != nil {
				t.Fatal(err)
			}
			sh["placer_states"] = b
		}
	})
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("open legacy snapshot: %v", err)
	}
	defer re.Close(context.Background())
	assertReopened(t, re, svc)
	for i := 0; i < svc.Shards(); i++ {
		got, _ := re.(*service).cl.Shard(i).PlacerState()
		want, ok := svc.(*service).cl.Shard(i).PlacerState()
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("shard %d estimator = %v, want placer_states[0] = %v", i, got, want)
		}
	}
}

// TestOpenLegacyFullRecomputeSnapshot: ledgers written while the
// enforcement config could ask for full recomputation carry
// "FullRecompute" in it, and ones written while it could name a
// guarantee partitioner carry "Partitioner" — "" or "tag" for the TAG.
// Full recomputation only ever changed which components a period
// re-solved, never a rate, so such a ledger opens as the incremental
// TAG-partitioned service it is equivalent to.
func TestOpenLegacyFullRecomputeSnapshot(t *testing.T) {
	for _, partitioner := range []string{"", "tag"} {
		// assertReopened steps both services, so each case gets a fresh
		// writer.
		svc := legacyWriter(t, WithEnforcement(EnforcementConfig{Alpha: 0.5}))
		dir := legacyLedger(t, svc, func(cfg map[string]json.RawMessage, _ []map[string]json.RawMessage) {
			if got := string(cfg["algorithm"]); got != `"cm"` {
				t.Fatalf("writer recorded algorithm %s, want \"cm\"", got)
			}
			cfg["enforce"] = json.RawMessage(`{"Alpha":0.5,"Partitioner":` + strconv.Quote(partitioner) + `,"FullRecompute":true}`)
		})
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("open legacy snapshot (partitioner %q): %v", partitioner, err)
		}
		assertReopened(t, re, svc)
		re.Close(context.Background())
	}
}

// TestOpenRefusesOtherAlgorithms: older builds could serve a baseline
// placer or a CloudMirror variant, or enforce with a baseline guarantee
// partitioner, and recorded its name. Open refuses such a ledger by
// that name rather than replaying its decisions through a placer that
// never made them, or enforcing guarantees its writer never enforced.
func TestOpenRefusesOtherAlgorithms(t *testing.T) {
	svc := legacyWriter(t, WithEnforcement(EnforcementConfig{Alpha: 0.5}))
	type refusal struct{ key, name, value string }
	var cases []refusal
	for _, name := range []string{"ovoc", "ovoc-aware", "secondnet", "cm-oppha", "cm-coloc", "cm-balance"} {
		cases = append(cases, refusal{"algorithm", name, strconv.Quote(name)})
	}
	for _, name := range []string{"hose", "gatekeeper"} {
		cases = append(cases, refusal{"enforce", name, `{"Alpha":0.5,"Partitioner":` + strconv.Quote(name) + `}`})
	}
	for _, c := range cases {
		dir := legacyLedger(t, svc, func(cfg map[string]json.RawMessage, _ []map[string]json.RawMessage) {
			cfg[c.key] = json.RawMessage(c.value)
		})
		re, err := Open(dir)
		if err == nil {
			re.Close(context.Background())
			t.Errorf("%s: ledger opened", c.name)
			continue
		}
		if ReasonOf(err) != InvalidRequest || !strings.Contains(err.Error(), strconv.Quote(c.name)) {
			t.Errorf("%s: err = %v, want invalid_request naming the %s", c.name, err, c.key)
		}
	}
}

// TestNewRefusesExistingLedger: New must not silently overwrite a
// ledger a previous service wrote — that is Open's job.
func TestNewRefusesExistingLedger(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(testSpec(), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(testSpec(), WithDurability(dir)); ReasonOf(err) != InvalidRequest {
		t.Fatalf("New over existing ledger: err = %v, want invalid_request", err)
	}
}
