package guarantee

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// newTestServer spins up the HTTP API over a small single-shard
// CloudMirror service.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := New(testSpec(), WithAlgorithm("cm"))
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

// TestHTTPLifecycle: admit → get → resize → release over the wire.
func TestHTTPLifecycle(t *testing.T) {
	ts := newTestServer(t)

	var g grantBody
	resp := do(t, "POST", ts.URL+"/v1/guarantees", `{"tag":`+tagJSON(3, 2)+`,"rwcs":0.5}`, &g)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d, want 201", resp.StatusCode)
	}
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
	if got.VMs != 5 {
		t.Errorf("get VMs = %d, want 5", got.VMs)
	}

	var resized grantBody
	resp = do(t, "POST", ts.URL+"/v1/guarantees/"+g.ID+"/resize", `{"tag":`+tagJSON(6, 2)+`}`, &resized)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resize status = %d, want 200", resp.StatusCode)
	}
	if resized.VMs != 8 {
		t.Errorf("resize VMs = %d, want 8", resized.VMs)
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
// and both 422 on a service built without enforcement.
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

	svc, err := New(testSpec(), WithAlgorithm("cm"), WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
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

// TestHTTPDurabilityEndpoints: /v1/healthz, /v1/wal, and /v1/snapshot
// against a durable service — and their typed 422 on an in-memory one.
func TestHTTPDurabilityEndpoints(t *testing.T) {
	svc, err := New(testSpec(), WithAlgorithm("cm"), WithDurability(t.TempDir()))
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
	svc, err := New(testSpec(), WithAlgorithm("cm"), WithDurability(dir))
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
	svc, err := New(testSpec(), WithAlgorithm("cm"), WithDurability(t.TempDir()))
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
	svc, err := New(testSpec(), WithAlgorithm("cm"), WithShards(2), WithEnforcement(EnforcementConfig{}))
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

	svc, err := New(testSpec(), WithAlgorithm("cm"), WithEnforcement(EnforcementConfig{}))
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
