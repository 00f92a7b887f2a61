package guarantee

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

// newTestServer spins up the HTTP API over a small single-shard
// CloudMirror service.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// tagJSON renders a two-tier tenant in the TAG wire format.
func tagJSON(web, db int) string {
	return fmt.Sprintf(`{"name":"shop",
		"tiers":[{"name":"web","n":%d},{"name":"db","n":%d}],
		"edges":[{"from":"web","to":"db","s":100,"r":300}]}`, web, db)
}

// do issues a request and decodes the JSON response into out.
func do(t *testing.T, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// doRaw issues a request and returns the response with its raw body.
func doRaw(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// grantReply decodes an admit or resize reply and checks its contract:
// one line of compact JSON carrying the grant without its TAG.
func grantReply(t *testing.T, op string, raw []byte) grantBody {
	t.Helper()
	if n := bytes.Count(raw, []byte("\n")); n != 1 || raw[len(raw)-1] != '\n' {
		t.Errorf("%s reply is %d lines, want one line: %s", op, n, raw)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("%s reply: %v", op, err)
	}
	if _, ok := keys["tag"]; ok {
		t.Errorf("%s reply echoes the TAG: %s", op, raw)
	}
	var g grantBody
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("%s reply: %v", op, err)
	}
	return g
}

// TestHTTPLifecycle: admit → get → resize → get → release over the
// wire. Admit and resize reply with the grant alone; GET returns the
// TAG the grant currently guarantees.
func TestHTTPLifecycle(t *testing.T) {
	ts := newTestServer(t)

	resp, raw := doRaw(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(3, 2)+`,"rwcs":0.5}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
	g := grantReply(t, "admit", raw)
	if g.ID == "" || g.VMs != 5 || g.ReservedMbps <= 0 {
		t.Fatalf("admit body = %+v", g)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/guarantees/"+g.ID {
		t.Errorf("Location = %q", loc)
	}

	var got grantBody
	if resp := do(t, "GET", ts.URL+"/v1/guarantees/"+g.ID, "", &got); resp.StatusCode != 200 {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	if got.VMs != 5 || got.TAG == nil || got.TAG.TierSize(0) != 3 {
		t.Errorf("get = %+v with TAG %v, want 5 VMs and the admitted TAG", got, got.TAG)
	}

	resp, raw = doRaw(t, "POST", ts.URL+"/v1/guarantees/"+g.ID+"/resize", `{"tag":`+tagJSON(6, 2)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resize status = %d, want 200", resp.StatusCode)
	}
	if resized := grantReply(t, "resize", raw); resized.VMs != 8 || resized.ID != g.ID {
		t.Errorf("resize body = %+v, want %s with 8 VMs", resized, g.ID)
	}
	got = grantBody{}
	if resp := do(t, "GET", ts.URL+"/v1/guarantees/"+g.ID, "", &got); resp.StatusCode != 200 {
		t.Fatalf("get after resize status = %d", resp.StatusCode)
	}
	if got.VMs != 8 || got.TAG == nil || got.TAG.TierSize(0) != 6 || got.TAG.TierSize(1) != 2 {
		t.Errorf("get after resize = %+v with TAG %v, want 8 VMs and the resized TAG", got, got.TAG)
	}

	var stats statsBody
	do(t, "GET", ts.URL+"/v1/stats", "", &stats)
	if stats.Stats.Admitted != 1 || stats.Stats.Resized != 1 || stats.Live != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Algorithm != "cm" || stats.Shards != 1 {
		t.Errorf("identity = %s/%d shards", stats.Algorithm, stats.Shards)
	}

	if resp := do(t, "DELETE", ts.URL+"/v1/guarantees/"+g.ID, "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release status = %d, want 204", resp.StatusCode)
	}
	var e errorBody
	if resp := do(t, "GET", ts.URL+"/v1/guarantees/"+g.ID, "", &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after release status = %d, want 404", resp.StatusCode)
	}
	if e.Error.Reason != "not_found" {
		t.Errorf("get after release reason = %q", e.Error.Reason)
	}
}

// TestHTTPTypedRejections: every failure mode carries its typed reason
// code in the JSON body with the documented status.
func TestHTTPTypedRejections(t *testing.T) {
	ts := newTestServer(t)

	cases := []struct {
		name       string
		method, ep string
		body       string
		status     int
		reason     string
	}{
		{"bad json", "POST", "/v1/guarantees", "{", 400, string(InvalidRequest)},
		{"missing tag", "POST", "/v1/guarantees", "{}", 400, string(InvalidRequest)},
		{"invalid rwcs", "POST", "/v1/guarantees", `{"tag":` + tagJSON(2, 1) + `,"rwcs":2}`, 400, string(InvalidRequest)},
		{"laa past root", "POST", "/v1/guarantees", `{"tag":` + tagJSON(2, 1) + `,"rwcs":0.5,"laa":99}`, 400, string(InvalidRequest)},
		{"capacity", "POST", "/v1/guarantees", `{"tag":` + tagJSON(1000, 1) + `}`, 409, string(NoPlacement)},
		{"resize unknown id", "POST", "/v1/guarantees/g-99/resize", `{"tag":` + tagJSON(2, 1) + `}`, 404, "not_found"},
		{"release unknown id", "DELETE", "/v1/guarantees/g-99", "", 404, "not_found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e errorBody
			resp := do(t, c.method, ts.URL+c.ep, c.body, &e)
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.status)
			}
			if e.Error.Reason != c.reason {
				t.Errorf("reason = %q, want %q", e.Error.Reason, c.reason)
			}
			if e.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}

	// A structural change on a live grant rejects with invalid_request
	// and a capacity-busting grow with a capacity code.
	var g grantBody
	do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(2, 1)+`}`, &g)
	var e errorBody
	resp := do(t, "POST", ts.URL+"/v1/guarantees/"+g.ID+"/resize",
		`{"tag":{"name":"shop","tiers":[{"name":"web","n":2}],"edges":[]}}`, &e)
	if resp.StatusCode != 400 || e.Error.Reason != string(InvalidRequest) {
		t.Errorf("structural resize: %d/%q, want 400/%q", resp.StatusCode, e.Error.Reason, InvalidRequest)
	}
	resp = do(t, "POST", ts.URL+"/v1/guarantees/"+g.ID+"/resize", `{"tag":`+tagJSON(1000, 1)+`}`, &e)
	if resp.StatusCode != 409 {
		t.Errorf("capacity resize status = %d, want 409", resp.StatusCode)
	}
	reason := Reason(e.Error.Reason)
	if !reason.Capacity() {
		t.Errorf("capacity resize reason %q is not capacity-class", reason)
	}
}

// TestHTTPEnforcement: POST /v1/enforcement/step runs a control
// period, GET /v1/enforcement reads state without advancing the loop,
// both count the components holding a contended link and give each
// tenant's base, and both 422 on a service built without enforcement.
func TestHTTPEnforcement(t *testing.T) {
	// Without enforcement: typed Unsupported rejection on both routes.
	plain := newTestServer(t)
	for _, req := range [][2]string{{"GET", "/v1/enforcement"}, {"POST", "/v1/enforcement/step"}} {
		var e errorBody
		resp := do(t, req[0], plain.URL+req[1], "", &e)
		if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Reason != string(Unsupported) {
			t.Errorf("%s %s without enforcement: status %d reason %q, want 422 unsupported",
				req[0], req[1], resp.StatusCode, e.Error.Reason)
		}
	}

	svc, err := New(testSpec(), WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var g grantBody
	resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(3, 2)+`}`, &g)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}

	// Before any period has run, GET reports counters only — and must
	// not itself advance the control loop.
	var body enforcementBody
	resp = do(t, "GET", ts.URL+"/v1/enforcement", "", &body)
	if resp.StatusCode != http.StatusOK || body.Events.Admitted != 1 || body.Pairs != 0 {
		t.Errorf("pre-step GET = %d %+v, want 200 with counters and no period outcome", resp.StatusCode, body)
	}

	resp = do(t, "POST", ts.URL+"/v1/enforcement/step", "", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step status = %d, want 200", resp.StatusCode)
	}
	if body.Tenants != 1 || body.Events.Admitted != 1 {
		t.Errorf("step body = %+v, want 1 tenant admitted", body)
	}
	if body.MinRatio < 1-1e-9 {
		t.Errorf("MinRatio = %g, want >= 1", body.MinRatio)
	}
	if len(body.PerTenant) != 1 || body.PerTenant[0].GuaranteedMbps <= 0 {
		t.Errorf("per-tenant = %+v, want one tenant with a positive guarantee", body.PerTenant)
	}
	// The lone tenant is one component, and its first period solves it.
	if body.Components != 1 || body.Solved != 1 {
		t.Errorf("step body reports %d of %d components solved, want 1 of 1", body.Solved, body.Components)
	}

	// GET now serves the cached period outcome read-only.
	var got enforcementBody
	resp = do(t, "GET", ts.URL+"/v1/enforcement", "", &got)
	if resp.StatusCode != http.StatusOK || got.Tenants != 1 || got.AchievedMbps != body.AchievedMbps {
		t.Errorf("post-step GET = %d %+v, want the cached period outcome", resp.StatusCode, got)
	}
	if got.Components != 1 || got.Solved != 1 {
		t.Errorf("post-step GET reports %d of %d components solved, want the period's 1 of 1", got.Solved, got.Components)
	}
	// Undeclared flows are backlogged, so every link they cross is
	// contended. The tenant's row carries the base its MinRatio is
	// measured against — the whole report's, with one tenant.
	for _, b := range []enforcementBody{body, got} {
		if b.Contended != 1 {
			t.Errorf("backlogged tenant: %d contended components, want 1", b.Contended)
		}
		if pt := b.PerTenant[0]; !(pt.BaseMbps > 0) || pt.BaseMbps != b.BaseMbps {
			t.Errorf("per-tenant base_mbps %v, want the report's %v", pt.BaseMbps, b.BaseMbps)
		}
	}

	// One Mbps per web → db pair fills no link: still one component,
	// none contended.
	var demands []Demand
	for src := 0; src < 3; src++ {
		for dst := 3; dst < 5; dst++ {
			demands = append(demands, Demand{Src: src, Dst: dst, Mbps: 1})
		}
	}
	srv.mu.Lock()
	sg := srv.grants[g.ID]
	srv.mu.Unlock()
	if err := svc.Enforcement().SetDemand(sg.grant, demands); err != nil {
		t.Fatal(err)
	}
	resp = do(t, "POST", ts.URL+"/v1/enforcement/step", "", &body)
	if resp.StatusCode != http.StatusOK || body.Components != 1 || body.Contended != 0 {
		t.Errorf("declared step = %d, %d components of which %d contended; want 200, 1 and 0",
			resp.StatusCode, body.Components, body.Contended)
	}
	if pt := body.PerTenant[0]; !(pt.BaseMbps > 0) || pt.BaseMbps != body.BaseMbps || pt.MinRatio < 1-1e-9 {
		t.Errorf("declared tenant row %+v, want the report's base_mbps %v and min_ratio >= 1", pt, body.BaseMbps)
	}

	// Release: counters refresh on GET without running a period; the
	// next step reflects the departure.
	do(t, "DELETE", ts.URL+"/v1/guarantees/"+g.ID, "", nil)
	resp = do(t, "GET", ts.URL+"/v1/enforcement", "", &got)
	if resp.StatusCode != http.StatusOK || got.Events.Released != 1 {
		t.Errorf("post-release GET = %d %+v, want released counter 1", resp.StatusCode, got)
	}
	resp = do(t, "POST", ts.URL+"/v1/enforcement/step", "", &got)
	if resp.StatusCode != http.StatusOK || got.Tenants != 0 || got.Components != 0 || got.Solved != 0 {
		t.Errorf("post-release step = %d %+v, want 0 tenants and 0 components", resp.StatusCode, got)
	}
}

// TestHTTPConcurrentStepsFoldTheirRows: concurrent POST
// /v1/enforcement/step calls, with demands redeclared between them so
// consecutive periods fold different sums, each get a body whose
// per_tenant rows are that body's period: folded the way the report
// folds them — in admission order within a shard, then shard by shard —
// they give its achieved_mbps and guaranteed_mbps bit for bit.
func TestHTTPConcurrentStepsFoldTheirRows(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2), WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	var grants []Grant
	for i := 0; i < 4; i++ { // 5 VMs each: more than a server holds
		g, err := svc.Admit(context.Background(), Request{Graph: testGraph(3, 2)})
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)

	const steppers, steps = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < steppers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				var demands []Demand
				for src := 0; src < 3; src++ {
					for dst := 3; dst < 5; dst++ {
						demands = append(demands, Demand{Src: src, Dst: dst, Mbps: 1 + 100*rng.Float64()})
					}
				}
				if err := svc.Enforcement().SetDemand(grants[rng.Intn(len(grants))], demands); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/enforcement/step", "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				var body enforcementBody
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("step: status %d, decoding: %v", resp.StatusCode, err)
					return
				}
				achieved, guaranteed := foldRows(body.PerTenant)
				if len(body.PerTenant) != body.Tenants || math.Float64bits(achieved) != math.Float64bits(body.AchievedMbps) ||
					math.Float64bits(guaranteed) != math.Float64bits(body.GuaranteedMbps) {
					t.Errorf("a body's %d of %d tenant rows fold to %v achieved, %v guaranteed; the body reports %v, %v",
						len(body.PerTenant), body.Tenants, achieved, guaranteed, body.AchievedMbps, body.GuaranteedMbps)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// foldRows sums per_tenant rows the way a report folds them: each
// shard's rows in order from zero, then the shard sums in shard order.
func foldRows(rows []enforcementTenant) (achieved, guaranteed float64) {
	var shardAchieved, shardGuaranteed float64
	for i, r := range rows {
		shardAchieved += r.AchievedMbps
		shardGuaranteed += r.GuaranteedMbps
		if i == len(rows)-1 || rows[i+1].Shard != r.Shard {
			achieved += shardAchieved
			guaranteed += shardGuaranteed
			shardAchieved, shardGuaranteed = 0, 0
		}
	}
	return achieved, guaranteed
}

// TestHTTPDurabilityEndpoints: /v1/healthz, /v1/wal, and /v1/snapshot
// against a durable service — and their typed 422 on an in-memory one.
func TestHTTPDurabilityEndpoints(t *testing.T) {
	svc, err := New(testSpec(), WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)

	var h healthzBody
	if resp := do(t, "GET", ts.URL+"/v1/healthz", "", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	if h.Status != "ok" || !h.Durable || h.WAL == nil {
		t.Fatalf("healthz = %+v, want ok/durable with wal stats", h)
	}

	var g grantBody
	if resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(2, 1)+`}`, &g); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
	var st WALStats
	if resp := do(t, "GET", ts.URL+"/v1/wal", "", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("wal status = %d, want 200", resp.StatusCode)
	}
	if st.Records != 1 {
		t.Fatalf("wal records = %d after one admit, want 1", st.Records)
	}
	if resp := do(t, "POST", ts.URL+"/v1/snapshot", "", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d, want 200", resp.StatusCode)
	}
	if st.Records != 0 || st.Gen != 2 {
		t.Fatalf("post-snapshot wal stats = %+v, want empty gen 2", st)
	}

	// A closed service rejects admits over the wire with 503 and the
	// typed shutting_down reason.
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(1, 1)+`}`, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Reason != string(ShuttingDown) {
		t.Fatalf("admit after close: status %d reason %q, want 503 shutting_down", resp.StatusCode, eb.Error.Reason)
	}

	// In-memory services get the typed 422, reason-coded error body.
	mem := newTestServer(t)
	for _, ep := range []struct{ method, path string }{
		{"GET", "/v1/wal"}, {"POST", "/v1/snapshot"},
	} {
		var eb errorBody
		resp := do(t, ep.method, mem.URL+ep.path, "", &eb)
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Reason != string(Unsupported) {
			t.Fatalf("%s %s on in-memory service: status %d reason %q, want 422 unsupported",
				ep.method, ep.path, resp.StatusCode, eb.Error.Reason)
		}
	}
	var memH healthzBody
	if resp := do(t, "GET", mem.URL+"/v1/healthz", "", &memH); resp.StatusCode != http.StatusOK || memH.Durable {
		t.Fatalf("in-memory healthz = %+v (status %d), want non-durable 200", memH, resp.StatusCode)
	}
}

// TestHTTPRecoveryRebindsGrants: a grant admitted over HTTP keeps its
// URL across a crash — the recovered server re-serves it under the id
// the admission logged, the full get/resize/release lifecycle works on
// the rebound handle, and fresh admissions mint ids past it.
func TestHTTPRecoveryRebindsGrants(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(testSpec(), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())

	var g1, g2 grantBody
	if resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(2, 1)+`}`, &g1); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
	if resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(3, 2)+`}`, &g2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
	// Release g1 pre-crash: only g2 must survive, and its id must not
	// be renumbered into the gap.
	if resp := do(t, "DELETE", ts.URL+"/v1/guarantees/"+g1.ID, "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release status = %d, want 204", resp.StatusCode)
	}
	ts.Close()
	svc.Durability().abandon() // crash: no drain, no final snapshot

	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close(context.Background())
	ts2 := httptest.NewServer(NewServer(recovered).Handler())
	defer ts2.Close()

	var eb errorBody
	if resp := do(t, "GET", ts2.URL+"/v1/guarantees/"+g1.ID, "", &eb); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get released %s status = %d, want 404", g1.ID, resp.StatusCode)
	}
	var got grantBody
	if resp := do(t, "GET", ts2.URL+"/v1/guarantees/"+g2.ID, "", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("get recovered %s status = %d, want 200", g2.ID, resp.StatusCode)
	}
	if got.ID != g2.ID || got.VMs != g2.VMs || got.ReservedMbps != g2.ReservedMbps || got.TAG == nil {
		t.Fatalf("recovered grant = %+v, want %+v with its TAG", got, g2)
	}

	// The rebound handle is live: resize and release work over the wire.
	var grown grantBody
	if resp := do(t, "POST", ts2.URL+"/v1/guarantees/"+g2.ID+"/resize", `{"tag":`+tagJSON(4, 2)+`}`, &grown); resp.StatusCode != http.StatusOK {
		t.Fatalf("resize recovered grant status = %d, want 200", resp.StatusCode)
	}
	if grown.VMs <= got.VMs {
		t.Fatalf("resize grew VMs %d -> %d, want increase", got.VMs, grown.VMs)
	}

	// Fresh admissions mint ids past the recovered ones — no collision.
	var g3 grantBody
	if resp := do(t, "POST", ts2.URL+"/v1/guarantees", `{"tag":`+tagJSON(1, 1)+`}`, &g3); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-recovery admit status = %d, want 201", resp.StatusCode)
	}
	if g3.ID == g2.ID || g3.ID == g1.ID {
		t.Fatalf("post-recovery admit reused id %s", g3.ID)
	}
	if resp := do(t, "DELETE", ts2.URL+"/v1/guarantees/"+g2.ID, "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release recovered grant status = %d, want 204", resp.StatusCode)
	}
}

// TestHTTPClosedService: every mutating endpoint on a closed durable
// service answers 503 with the typed shutting_down reason — a load
// balancer must be able to drain on status alone, and a client must
// still get a machine-readable cause.
func TestHTTPClosedService(t *testing.T) {
	svc, err := New(testSpec(), WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)

	var g grantBody
	if resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(2, 1)+`}`, &g); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ name, method, ep, body string }{
		{"admit", "POST", "/v1/guarantees", `{"tag":` + tagJSON(1, 1) + `}`},
		{"resize", "POST", "/v1/guarantees/" + g.ID + "/resize", `{"tag":` + tagJSON(3, 1) + `}`},
		{"snapshot", "POST", "/v1/snapshot", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var e errorBody
			resp := do(t, c.method, ts.URL+c.ep, c.body, &e)
			if resp.StatusCode != http.StatusServiceUnavailable || e.Error.Reason != string(ShuttingDown) {
				t.Errorf("%s after close: status %d reason %q, want 503 %s",
					c.name, resp.StatusCode, e.Error.Reason, ShuttingDown)
			}
			if e.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}

	// Reads stay up on a closed service: health is how an operator
	// notices the drain, and the stats page must not 503 mid-shutdown.
	var h healthzBody
	if resp := do(t, "GET", ts.URL+"/v1/healthz", "", &h); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after close: status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPMalformedJSON: both JSON-accepting endpoints reject garbage,
// truncated, and wrong-shape bodies with 400 invalid_request — never a
// 500, never a hang on an unterminated body.
func TestHTTPMalformedJSON(t *testing.T) {
	ts := newTestServer(t)

	var g grantBody
	if resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(2, 1)+`}`, &g); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}

	bodies := []struct{ name, body string }{
		{"empty", ""},
		{"truncated", `{"tag":{"name":"x"`},
		{"not json", "::: not json :::"},
		{"wrong type", `{"tag":42}`},
		{"array root", `[1,2,3]`},
	}
	for _, ep := range []struct{ name, path string }{
		{"admit", "/v1/guarantees"},
		{"resize", "/v1/guarantees/" + g.ID + "/resize"},
	} {
		for _, b := range bodies {
			t.Run(ep.name+"/"+b.name, func(t *testing.T) {
				var e errorBody
				resp := do(t, "POST", ts.URL+ep.path, b.body, &e)
				if resp.StatusCode != http.StatusBadRequest || e.Error.Reason != string(InvalidRequest) {
					t.Errorf("status %d reason %q, want 400 %s", resp.StatusCode, e.Error.Reason, InvalidRequest)
				}
				if e.Error.Message == "" {
					t.Error("empty error message")
				}
			})
		}
	}
}

// TestHTTPTAGValidation: a TAG that decodes as JSON but not as a TAG is
// an invalid request on both endpoints, with the message naming the
// fault — the same text whether the TAG is resolved in the body's own
// decode pass or by Graph.UnmarshalJSON.
func TestHTTPTAGValidation(t *testing.T) {
	ts := newTestServer(t)
	var g grantBody
	if resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(2, 1)+`}`, &g); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
	cases := []struct{ name, tag, message string }{
		{"duplicate tier",
			`{"name":"shop","tiers":[{"name":"web","n":2},{"name":"web","n":1}],"edges":[]}`,
			`bad JSON: tag: duplicate tier "web"`},
		{"edge to unknown tier",
			`{"name":"shop","tiers":[{"name":"web","n":2}],"edges":[{"from":"web","to":"cache","s":1,"r":1}]}`,
			`bad JSON: tag: edge references unknown tier "cache"`},
		{"not an object", `42`, `bad JSON: json: cannot unmarshal number into Go `},
	}
	for _, ep := range []struct{ op, path string }{
		{"admit", "/v1/guarantees"},
		{"resize", "/v1/guarantees/" + g.ID + "/resize"},
	} {
		for _, c := range cases {
			t.Run(ep.op+"/"+c.name, func(t *testing.T) {
				var e errorBody
				resp := do(t, "POST", ts.URL+ep.path, `{"tag":`+c.tag+`}`, &e)
				if resp.StatusCode != http.StatusBadRequest || e.Error.Reason != string(InvalidRequest) {
					t.Errorf("status %d reason %q, want 400 %s", resp.StatusCode, e.Error.Reason, InvalidRequest)
				}
				want := "place: " + ep.op + " rejected (invalid_request): " + c.message
				if !strings.HasPrefix(e.Error.Message, want) {
					t.Errorf("message %q, want it to start %q", e.Error.Message, want)
				}
			})
		}
	}
}

// TestHTTPUnknownReasonBody pins the error envelope's fallback rules:
// a reason outside the taxonomy maps to 500 (not a zero status), and
// an untyped error serializes as the "internal" reason with the
// original message — the envelope shape holds even for failures the
// taxonomy never anticipated.
func TestHTTPUnknownReasonBody(t *testing.T) {
	if got := statusOf(Reason("no_such_reason")); got != http.StatusInternalServerError {
		t.Errorf("statusOf(unknown) = %d, want 500", got)
	}

	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("disk on fire"))
	var e errorBody
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
		t.Fatalf("decoding untyped error body: %v", err)
	}
	if rec.Code != http.StatusInternalServerError || e.Error.Reason != "internal" || e.Error.Message != "disk on fire" {
		t.Errorf("untyped error = %d %+v, want 500 internal with original message", rec.Code, e.Error)
	}

	rec = httptest.NewRecorder()
	writeError(rec, Rejectf("admit", Reason("exotic_future_reason"), "beyond the taxonomy"))
	e = errorBody{}
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
		t.Fatalf("decoding unknown-reason body: %v", err)
	}
	if rec.Code != http.StatusInternalServerError || e.Error.Reason != "exotic_future_reason" {
		t.Errorf("unknown reason = %d %+v, want 500 with the reason passed through", rec.Code, e.Error)
	}
}

// TestHTTPEnforcementReportNamesItsPeriod: the solved/components counts
// of a step body come from the report it was built from, not from the
// enforcement plane's "most recent period" accessor — so a body built
// after a later period has run (two concurrent POSTs) still pairs its
// rates with its own counts.
func TestHTTPEnforcementReportNamesItsPeriod(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2), WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.Admit(context.Background(), Request{Graph: testGraph(2, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	enf := svc.Enforcement()
	first, err := enf.Step() // every component is new: all solved
	if err != nil {
		t.Fatal(err)
	}
	if first.Components == 0 || first.Solved != first.Components {
		t.Fatalf("first period solved %d of %d components, want all of a non-empty fleet", first.Solved, first.Components)
	}
	var perShard int
	for _, st := range first.PerShard {
		perShard += st.Components
	}
	if perShard != first.Components {
		t.Errorf("report counts %d components, its shards %d", first.Components, perShard)
	}
	for i := 0; i < 3; i++ { // later periods settle and solve nothing
		if _, err := enf.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if solved, comps := enf.SolveStats(); solved != 0 || comps != first.Components {
		t.Fatalf("SolveStats = (%d,%d) after quiet periods, want (0,%d)", solved, comps, first.Components)
	}
	body := enforcementReportBody(enf, first)
	if body.Solved != first.Solved || body.Components != first.Components {
		t.Errorf("body of the first period reports %d of %d components solved, want its own %d of %d",
			body.Solved, body.Components, first.Solved, first.Components)
	}
}

// TestHTTPGrantEnforcement: GET /v1/guarantees/{id}/enforcement serves
// one grant's per-pair view as valid JSON even though backlogged flows
// offer (and colocated ones achieve) +Inf, and /v1/enforcement's
// per-tenant pair counts mean what the top-level ones mean.
func TestHTTPGrantEnforcement(t *testing.T) {
	plain := newTestServer(t)
	var g grantBody
	if resp := do(t, "POST", plain.URL+"/v1/guarantees", `{"tag":`+tagJSON(3, 2)+`}`, &g); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
	var e errorBody
	if resp := do(t, "GET", plain.URL+"/v1/guarantees/"+g.ID+"/enforcement", "", &e); resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Reason != string(Unsupported) {
		t.Errorf("without enforcement: status %d reason %q, want 422 unsupported", resp.StatusCode, e.Error.Reason)
	}

	svc, err := New(testSpec(), WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if resp := do(t, "GET", ts.URL+"/v1/guarantees/g-9/enforcement", "", &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown grant: status %d, want 404", resp.StatusCode)
	}
	if resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(5, 3)+`}`, &g); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}

	// Undeclared: every web→db pair backlogged. Before any period the
	// declaration is reported as it stands, nothing solved yet.
	check := func(when string, solved bool) grantEnforcementBody {
		t.Helper()
		var body grantEnforcementBody
		resp := do(t, "GET", ts.URL+"/v1/guarantees/"+g.ID+"/enforcement", "", &body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", when, resp.StatusCode)
		}
		if body.ID != g.ID || len(body.Flows) != 15 || body.Pairs+body.Colocated != 15 || body.Pairs == 0 || body.Colocated == 0 {
			t.Fatalf("%s: %d flows, %d enforced + %d colocated; want 15 web→db flows of both kinds", when, len(body.Flows), body.Pairs, body.Colocated)
		}
		for _, f := range body.Flows {
			if !f.Greedy || f.DemandMbps != nil {
				t.Errorf("%s: flow %+v: a backlogged demand must encode as null with greedy set", when, f)
			}
			switch {
			case f.Colocated && (f.RateMbps != nil || f.GuaranteeMbps != 0):
				t.Errorf("%s: colocated flow %+v: want an unbounded (null) rate and no guarantee", when, f)
			case !f.Colocated && f.RateMbps == nil:
				t.Errorf("%s: enforced flow %+v has no rate", when, f)
			case !f.Colocated && solved != (*f.RateMbps > 0 && f.GuaranteeMbps > 0):
				t.Errorf("%s: enforced flow %+v: want solved = %v", when, f, solved)
			}
		}
		return body
	}
	check("before any period", false)
	var step enforcementBody
	if resp := do(t, "POST", ts.URL+"/v1/enforcement/step", "", &step); resp.StatusCode != http.StatusOK {
		t.Fatalf("step status = %d, want 200", resp.StatusCode)
	}
	body := check("after a period", true)

	// One meaning of "pairs" at both levels of /v1/enforcement.
	if len(step.PerTenant) != 1 {
		t.Fatalf("step body lists %d tenants, want 1", len(step.PerTenant))
	}
	pt := step.PerTenant[0]
	if pt.Pairs != step.Pairs || pt.Colocated != step.Colocated || pt.Pairs != body.Pairs || pt.Colocated != body.Colocated {
		t.Errorf("per-tenant counts %d+%d, top-level %d+%d, pair view %d+%d: want enforced + colocated to agree",
			pt.Pairs, pt.Colocated, step.Pairs, step.Colocated, body.Pairs, body.Colocated)
	}

	// A finite declaration carries its number.
	if err := svc.Enforcement().SetDemand(srv.grants[g.ID].grant, []Demand{{Src: 0, Dst: 5, Mbps: 40}}); err != nil {
		t.Fatal(err)
	}
	var one grantEnforcementBody
	do(t, "GET", ts.URL+"/v1/guarantees/"+g.ID+"/enforcement", "", &one)
	if len(one.Flows) != 1 || one.Flows[0].Greedy || one.Flows[0].DemandMbps == nil || *one.Flows[0].DemandMbps != 40 {
		t.Errorf("finite declaration reads back as %+v, want one flow offering 40 Mbps", one.Flows)
	}
}

// serve runs one request through h in process.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// TestHTTPBodyLimit: an admit or resize body past maxBody is answered
// 413 with the invalid_request envelope and changes nothing — even when
// the bytes past the bound are only whitespace around a TAG that would
// be admitted.
func TestHTTPBodyLimit(t *testing.T) {
	svc, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(svc).Handler()
	rec := serve(h, "POST", "/v1/guarantees", []byte(`{"tag":`+tagJSON(2, 1)+`}`))
	if rec.Code != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", rec.Code)
	}
	path := rec.Header().Get("Location")
	stats, loads := svc.Stats(), svc.Loads()

	padded := func(tagJSON string) []byte {
		b := []byte(`{"tag":` + tagJSON)
		b = append(b, bytes.Repeat([]byte(" "), 10<<20)...)
		return append(b, '}')
	}
	for _, c := range []struct{ op, path, tag string }{
		{"admit", "/v1/guarantees", tagJSON(1, 1)},
		{"resize", path + "/resize", tagJSON(3, 1)},
	} {
		rec := serve(h, "POST", c.path, padded(c.tag))
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: undecodable reply %q: %v", c.op, rec.Body, err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || e.Error.Reason != string(InvalidRequest) || e.Error.Message == "" {
			t.Errorf("%s of a 10 MB body: %d %+v, want 413 %s", c.op, rec.Code, e.Error, InvalidRequest)
		}
	}
	if got := svc.Stats(); !reflect.DeepEqual(got, stats) {
		t.Errorf("stats moved: %+v -> %+v", stats, got)
	}
	if got := svc.Loads(); !reflect.DeepEqual(got, loads) {
		t.Errorf("loads moved: %+v -> %+v", loads, got)
	}
	var g grantBody
	if err := json.Unmarshal(serve(h, "GET", path, nil).Body.Bytes(), &g); err != nil || g.VMs != 3 {
		t.Errorf("grant after the refused resize: %+v (%v), want 3 VMs", g, err)
	}
}

// TestHTTPCallerChosenID: a body that chooses its id is served as
// g-<id>, the id a durable service logs, so the URL the client got
// serves the same grant after a crash and recovery. A live grant's id
// cannot be chosen again, a non-positive one not at all, and minting
// skips ids callers hold.
func TestHTTPCallerChosenID(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(testSpec(), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())

	admit := func(body string, want string) {
		t.Helper()
		resp, raw := doRaw(t, "POST", ts.URL+"/v1/guarantees", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %s: status %d (%s), want 201", body, resp.StatusCode, raw)
		}
		if g := grantReply(t, "admit", raw); g.ID != want || resp.Header.Get("Location") != "/v1/guarantees/"+want {
			t.Fatalf("admit %s served as %s at %s, want %s", body, g.ID, resp.Header.Get("Location"), want)
		}
	}
	admit(`{"id":77,"tag":`+tagJSON(2, 1)+`}`, "g-77")
	admit(`{"id":1,"tag":`+tagJSON(1, 1)+`}`, "g-1")
	admit(`{"tag":`+tagJSON(3, 2)+`}`, "g-2") // minting skips g-1

	for _, body := range []string{
		`{"id":77,"tag":` + tagJSON(1, 1) + `}`,
		`{"id":-3,"tag":` + tagJSON(1, 1) + `}`,
	} {
		var e errorBody
		if resp := do(t, "POST", ts.URL+"/v1/guarantees", body, &e); resp.StatusCode != http.StatusBadRequest || e.Error.Reason != string(InvalidRequest) {
			t.Errorf("admit %s: %d %q, want 400 %s", body, resp.StatusCode, e.Error.Reason, InvalidRequest)
		}
	}
	if st := svc.Stats(); st.Admitted != 3 {
		t.Fatalf("admitted %d, want 3: a refused id must not reach the service", st.Admitted)
	}
	// A grant admitted through the library logs no id; after recovery
	// it is served under a number minted past every recorded one.
	if _, err := svc.Admit(context.Background(), Request{Graph: testGraph(1, 1)}); err != nil {
		t.Fatal(err)
	}

	before := map[string][]byte{}
	for _, id := range []string{"g-77", "g-1", "g-2"} {
		resp, raw := doRaw(t, "GET", ts.URL+"/v1/guarantees/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get %s: %d", id, resp.StatusCode)
		}
		before[id] = raw
	}
	ts.Close()
	svc.Durability().abandon() // crash: no drain, no final snapshot

	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close(context.Background())
	ts2 := httptest.NewServer(NewServer(recovered).Handler())
	defer ts2.Close()
	for id, raw := range before {
		resp, got := doRaw(t, "GET", ts2.URL+"/v1/guarantees/"+id, "")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, raw) {
			t.Errorf("recovered %s: %d %s, want the pre-crash grant %s", id, resp.StatusCode, got, raw)
		}
	}
	var lib grantBody
	if resp := do(t, "GET", ts2.URL+"/v1/guarantees/g-78", "", &lib); resp.StatusCode != http.StatusOK || lib.VMs != 2 {
		t.Errorf("library grant after recovery: %d %+v, want it served as g-78 with 2 VMs", resp.StatusCode, lib)
	}
}

// TestHTTPConcurrentClaims: admissions racing for one chosen id and for
// minted ids never share a URL — at most one is served as g-1, the rest
// of those are refused with 400, every minted admission is served, and
// the registry holds exactly the grants that were acknowledged.
func TestHTTPConcurrentClaims(t *testing.T) {
	svc, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	h := srv.Handler()
	const n = 8
	recs := make([]*httptest.ResponseRecorder, 2*n)
	var wg sync.WaitGroup
	for i := range recs {
		body := `{"tag":` + tagJSON(1, 1) + `}`
		if i%2 == 0 {
			body = `{"id":1,"tag":` + tagJSON(1, 1) + `}`
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = serve(h, "POST", "/v1/guarantees", []byte(body))
		}()
	}
	wg.Wait()
	served := map[string]bool{}
	for i, rec := range recs {
		loc := rec.Header().Get("Location")
		switch {
		case rec.Code == http.StatusCreated && !served[loc]:
			served[loc] = true
		case rec.Code == http.StatusCreated:
			t.Errorf("two admissions served at %s", loc)
		case i%2 == 1 || rec.Code != http.StatusBadRequest:
			t.Errorf("admission %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if len(served) < n || len(served) > n+1 {
		t.Errorf("%d admissions served, want the %d minted ones and at most one g-1", len(served), n)
	}
	if st := svc.Stats(); int(st.Admitted) != len(served) || len(srv.grants) != len(served) || len(srv.claimed) != 0 {
		t.Errorf("service admitted %d, registry holds %d (%d claims left), want %d", st.Admitted, len(srv.grants), len(srv.claimed), len(served))
	}
}

// twoPassAdmitBody is admitBody with the TAG as a *tag.Graph: encoding/
// json scans the TAG's bytes to hand them to Graph.UnmarshalJSON, which
// scans them again. It is the reference FuzzHTTPAdmit holds the
// one-pass decode to.
type twoPassAdmitBody struct {
	ID            int64       `json:"id,omitempty"`
	TAG           *tag.Graph  `json:"tag"`
	RWCS          float64     `json:"rwcs,omitempty"`
	LAA           int         `json:"laa,omitempty"`
	Opportunistic bool        `json:"opportunistic,omitempty"`
	Resources     [][]float64 `json:"resources,omitempty"`
}

// repeatsTAG reports whether data is an object naming "tag" more than
// once, in any case (encoding/json matches field names that way). The
// one-pass decode fills a repeated object field into what the first
// occurrence built, where a *tag.Graph field built a fresh graph from
// each, so the two may disagree on such a body; RFC 8259 leaves a
// repeated name's meaning to the implementation, and either way the
// handler serves only a graph Wire.Graph validated.
func repeatsTAG(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	n := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return false
		}
		if k, _ := key.(string); strings.EqualFold(k, "tag") {
			n++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return n > 1
}

// FuzzHTTPAdmit drives handleAdmit with arbitrary bodies on a small
// service. The handler never panics and never answers 5xx, every reply
// but a 201 is the error envelope, and a body is accepted iff the
// two-pass decode accepts it, with the same graph (by MarshalJSON
// bytes) and the same other fields.
func FuzzHTTPAdmit(f *testing.F) {
	for _, s := range []string{
		"", `{"tag":{"name":"x"`, "::: not json :::", `{"tag":42}`, `[1,2,3]`, `{}`, `{"tag":null}`,
		`{"tag":` + tagJSON(2, 1) + `}`,
		`{"id":7,"tag":` + tagJSON(3, 2) + `,"rwcs":0.5,"laa":1}`,
		`{"tag":` + tagJSON(2, 1) + `,"rwcs":0.5,"laa":99,"opportunistic":true}`,
		`{"tag":{"name":"x","tiers":[{"name":"a","n":2},{"name":"a","n":1}],"edges":[]}}`,
		`{"tag":{"name":"x","tiers":[{"name":"a","n":2}],"edges":[{"from":"a","to":"b","s":1,"r":1}]}}`,
		`{"tag":{"name":"x","tiers":[{"name":"a","n":4},{"name":"net","external":true}],"edges":[{"from":"a","to":"a","sr":50},{"from":"a","to":"net","s":10,"r":5}]}}`,
		`{"tag":` + tagJSON(2, 1) + `,"tag":{"name":"y"}}`,
		`{"tag":` + tagJSON(2, 1) + `} {}`,
	} {
		f.Add([]byte(s))
	}
	pool := workload.BingLike(1)
	workload.ScaleToBmax(pool, 800)
	for added := 0; added < 4 && len(pool) > 0; pool = pool[1:] {
		if g := pool[0]; g.VMs() <= 16 {
			b, err := json.Marshal(struct {
				TAG *tag.Graph `json:"tag"`
			}{g})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			added++
		}
	}

	svc, err := New(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(svc)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		srv.handleAdmit(rec, httptest.NewRequest(http.MethodPost, "/v1/guarantees", bytes.NewReader(data)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var e errorBody
		if rec.Code == http.StatusCreated {
			g := grantReply(t, "admit", rec.Body.Bytes())
			if rel := serve(h, http.MethodDelete, "/v1/guarantees/"+g.ID, nil); rel.Code != http.StatusNoContent {
				t.Fatalf("release %s: %d", g.ID, rel.Code)
			}
		} else {
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&e); err != nil || e.Error.Reason == "" || e.Error.Message == "" {
				t.Fatalf("status %d: reply %q is not the error envelope (%v)", rec.Code, rec.Body, err)
			}
		}

		var one admitBody
		var g *tag.Graph
		err := json.Unmarshal(data, &one)
		if err == nil {
			g, err = graphOf("admit", one.TAG)
		}
		if err != nil && (rec.Code != http.StatusBadRequest || e.Error.Reason != string(InvalidRequest)) {
			t.Fatalf("decode refused the body (%v) but the handler answered %d %q", err, rec.Code, e.Error.Reason)
		}
		if repeatsTAG(data) {
			return
		}
		var two twoPassAdmitBody
		errTwo := json.Unmarshal(data, &two)
		if errTwo == nil && two.TAG == nil {
			errTwo = fmt.Errorf("missing tag")
		}
		if (err == nil) != (errTwo == nil) {
			t.Fatalf("one-pass decode: %v; two-pass decode: %v", err, errTwo)
		}
		if err != nil {
			return
		}
		gotJSON, err1 := g.MarshalJSON()
		wantJSON, err2 := two.TAG.MarshalJSON()
		if err1 != nil || err2 != nil || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("graphs differ: %s (%v) vs %s (%v)", gotJSON, err1, wantJSON, err2)
		}
		if one.ID != two.ID || one.RWCS != two.RWCS || one.LAA != two.LAA || one.Opportunistic != two.Opportunistic ||
			!reflect.DeepEqual(one.Resources, two.Resources) {
			t.Fatalf("fields differ: %+v vs %+v", one, two)
		}
	})
}

// admitBodies encodes the benchmark's admission workload — BingLike
// tenants scaled to Bmax 800 Mbps — as admit request bodies.
func admitBodies(tb testing.TB) [][]byte {
	tb.Helper()
	pool := workload.BingLike(1)
	workload.ScaleToBmax(pool, 800)
	bodies := make([][]byte, len(pool))
	for i, g := range pool {
		b, err := json.Marshal(struct {
			TAG *tag.Graph `json:"tag"`
		}{g})
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = b
	}
	return bodies
}

// BenchmarkHTTPAdmit times an admit and its release through Handler on
// PaperSpec, cycling through the workload's TAGs.
func BenchmarkHTTPAdmit(b *testing.B) {
	svc, err := New(topology.PaperSpec())
	if err != nil {
		b.Fatal(err)
	}
	h := NewServer(svc).Handler()
	bodies := admitBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := serve(h, http.MethodPost, "/v1/guarantees", bodies[i%len(bodies)])
		if rec.Code != http.StatusCreated {
			b.Fatalf("admit: %d %s", rec.Code, rec.Body)
		}
		if rec = serve(h, http.MethodDelete, rec.Header().Get("Location"), nil); rec.Code != http.StatusNoContent {
			b.Fatalf("release: %d", rec.Code)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header
// map.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// maxCodecAllocs is the allocation budget of the handler's own work on
// an admit of codecTAG: reading and decoding the body, resolving the
// TAG, encoding the reply. 38 measured (go1.24), plus 10%.
const maxCodecAllocs = 41

// codecTAG is a three-tier TAG with a self-loop and an external tier.
const codecTAG = `{"tag":{"name":"shop","tiers":[{"name":"web","n":8},{"name":"app","n":6},{"name":"db","n":4},{"name":"net","external":true}],
	"edges":[{"from":"net","to":"web","s":20,"r":40},{"from":"web","to":"app","s":100,"r":150},{"from":"app","to":"web","s":150,"r":100},
	{"from":"app","to":"db","s":80,"r":120},{"from":"db","to":"db","sr":60}]}}`

// TestHTTPCodecAllocs guards the allocations of an admit's decode and
// encode, with no placement between them. Skipped under the race
// detector, where sync.Pool drops buffers at random.
func TestHTTPCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	body := []byte(codecTAG)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/guarantees", io.NopCloser(rd))
	w := discardWriter{h: make(http.Header)}
	reply := grantBody{ID: "g-1", VMs: 18, Servers: 5, ReservedMbps: 1234.5}
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		var b admitBody
		if !decodeBody(w, req, "admit", &b) {
			t.Fatal("decode failed")
		}
		if _, err := graphOf("admit", b.TAG); err != nil {
			t.Fatal(err)
		}
		writeJSON(w, http.StatusCreated, reply)
	})
	t.Logf("decode + encode: %.1f allocs", allocs)
	if allocs > maxCodecAllocs {
		t.Errorf("decode + encode allocates %.1f times, budget %d", allocs, maxCodecAllocs)
	}
}
