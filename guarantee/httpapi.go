package guarantee

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
)

// Server exposes a Service as an HTTP JSON API — the handler behind
// the cmd/bwd daemon. Every rejection is serialized with its typed
// Reason code, so clients dispatch on machine-readable causes:
//
//	POST   /v1/guarantees              admit a TAG          -> 201 + grant
//	GET    /v1/guarantees/{id}         inspect a grant      -> 200
//	POST   /v1/guarantees/{id}/resize  resize in place      -> 200
//	DELETE /v1/guarantees/{id}         release              -> 204
//	GET    /v1/guarantees/{id}/enforcement  per-pair rates  -> 200
//	GET    /v1/stats                   counters + loads     -> 200
//	POST   /v1/enforcement/step        run a control period -> 200
//	GET    /v1/enforcement             last period + events -> 200
//	GET    /v1/healthz                 liveness + WAL lag   -> 200
//	POST   /v1/snapshot                snapshot now         -> 200
//	GET    /v1/wal                     log position         -> 200
//	GET    /healthz                    liveness             -> 200
//
// Grant handles are process-local: the server keeps the id -> Grant
// registry in memory, mirroring the paper's controller owning tenant
// state. For a durable service the registry survives anyway — NewServer
// rebinds a recovered service's grants under their pre-crash ids.
//
// Admit and resize bodies are bounded (maxBody) and decoded in one
// pass, without reflection when they are canonical JSON; admit and
// resize reply with the grant alone, and GET returns it with the TAG it
// currently guarantees. Replies are compact JSON.
type Server struct {
	svc Service

	mu     sync.Mutex
	grants map[string]*servedGrant
	// claimed holds the ids of admissions in flight: an id is claimed
	// before its admission runs, so no two grants are ever served under
	// one URL.
	claimed map[string]bool
	nextID  int64
	// enfMu serializes control periods served over HTTP — the step, the
	// read of its per-tenant rows and the store of its body — so each
	// body is one period's outcome. It guards lastEnforcement, which
	// caches the most recent body, so GET /v1/enforcement stays
	// read-only (only POST .../step advances the loop).
	enfMu           sync.Mutex
	lastEnforcement *enforcementBody
}

// servedGrant pairs a live grant with the TAG it currently guarantees
// (the resize base). Its own lock serializes resizes and graph reads
// of one grant, so a slow placement search never blocks the registry —
// requests for other grants proceed concurrently.
type servedGrant struct {
	mu    sync.Mutex
	grant Grant
	graph *tag.Graph
}

// NewServer wraps the service for HTTP serving. A recovered durable
// service (guarantee.Open) comes with live grants; NewServer re-serves
// them immediately, each under the id its admission logged — the
// server passes the grant's number, minted or chosen by the caller,
// through Request.ID, so grant URLs are stable across a crash and
// recovery. Grants whose recorded id is absent or already taken (only
// a ledger written by direct library use can repeat one) are re-minted
// in Durability.Grants order once every recorded id is bound.
func NewServer(svc Service) *Server {
	s := &Server{svc: svc, grants: make(map[string]*servedGrant), claimed: make(map[string]bool)}
	dur := svc.Durability()
	if dur == nil {
		return s
	}
	var unbound []*servedGrant
	for _, rg := range dur.Grants() {
		g, ok := rg.(*grant)
		if !ok {
			continue
		}
		rec, ok := g.ad.Record()
		if !ok {
			continue
		}
		sg := &servedGrant{grant: g, graph: rec.Graph}
		if id := grantID(rec.ID); rec.ID > 0 && s.grants[id] == nil {
			s.grants[id] = sg
			s.nextID = max(s.nextID, rec.ID)
			continue
		}
		unbound = append(unbound, sg)
	}
	for _, sg := range unbound {
		id, _ := s.mint()
		s.grants[id] = sg
	}
	return s
}

// grantID is the URL id of the grant numbered n.
func grantID(n int64) string { return "g-" + strconv.FormatInt(n, 10) }

// mint returns the next number no served or claimed grant holds, with
// its id. The caller holds s.mu (or owns s outright).
func (s *Server) mint() (string, int64) {
	for {
		s.nextID++
		id := grantID(s.nextID)
		if s.grants[id] == nil && !s.claimed[id] {
			return id, s.nextID
		}
	}
}

// claim reserves the id an admission will be served under: the
// caller's number when the body chose one, else a freshly minted one.
// It fails when a live grant or an admission in flight holds the
// caller's number. A claimed id is released by settle.
func (s *Server) claim(chosen int64) (id string, n int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if chosen == 0 {
		id, n = s.mint()
	} else {
		id, n = grantID(chosen), chosen
		if s.grants[id] != nil || s.claimed[id] {
			return "", 0, false
		}
	}
	s.claimed[id] = true
	return id, n, true
}

// settle releases a claimed id and, when the admission succeeded,
// serves its grant under it.
func (s *Server) settle(id string, sg *servedGrant) {
	s.mu.Lock()
	delete(s.claimed, id)
	if sg != nil {
		s.grants[id] = sg
	}
	s.mu.Unlock()
}

// Handler returns the route table as a stdlib http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/guarantees", s.handleAdmit)
	mux.HandleFunc("GET /v1/guarantees/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/guarantees/{id}/resize", s.handleResize)
	mux.HandleFunc("DELETE /v1/guarantees/{id}", s.handleRelease)
	mux.HandleFunc("GET /v1/guarantees/{id}/enforcement", s.handleGrantEnforcement)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/enforcement", s.handleEnforcementGet)
	mux.HandleFunc("POST /v1/enforcement/step", s.handleEnforcementStep)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/wal", s.handleWAL)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// admitBody is the admit request wire form. The "tag" field uses the
// TAG JSON format of internal/tag (tiers by name, edges with per-VM
// s/r guarantees, self-loops with sr), decoded in the same pass as the
// rest of the body. A non-zero "id" chooses the grant's number: the
// grant is served as g-<id>, and the id must be positive and not held
// by a live grant.
type admitBody struct {
	ID            int64       `json:"id,omitempty"`
	TAG           *tag.Wire   `json:"tag"`
	RWCS          float64     `json:"rwcs,omitempty"`
	LAA           int         `json:"laa,omitempty"`
	Opportunistic bool        `json:"opportunistic,omitempty"`
	Resources     [][]float64 `json:"resources,omitempty"`
}

// scan reads data into b when it is in tag.Scanner's canonical subset
// and reports false, b untouched, when it is not.
func (b *admitBody) scan(data []byte) bool {
	var nb admitBody
	var seen uint32
	s := tag.NewScanner(data)
	for more := s.Object(); more; more = s.More() {
		switch string(s.Key()) {
		case "id":
			nb.ID = s.Int64()
		case "tag":
			s.Seen(&seen, 1)
			nb.TAG = new(tag.Wire)
			s.Wire(nb.TAG)
		case "rwcs":
			nb.RWCS = s.Float()
		case "laa":
			nb.LAA = s.Int()
		case "opportunistic":
			nb.Opportunistic = s.Bool()
		case "resources":
			s.Seen(&seen, 2)
			nb.Resources = s.FloatRows()
		default:
			s.Decline()
		}
	}
	if !s.End() {
		return false
	}
	*b = nb
	return true
}

// resizeBody is the resize request wire form: the tenant's full TAG
// with tier sizes changed.
type resizeBody struct {
	TAG *tag.Wire `json:"tag"`
}

// scan is admitBody.scan for a resize body.
func (b *resizeBody) scan(data []byte) bool {
	var nb resizeBody
	var seen uint32
	s := tag.NewScanner(data)
	for more := s.Object(); more; more = s.More() {
		switch string(s.Key()) {
		case "tag":
			s.Seen(&seen, 1)
			nb.TAG = new(tag.Wire)
			s.Wire(nb.TAG)
		default:
			s.Decline()
		}
	}
	if !s.End() {
		return false
	}
	*b = nb
	return true
}

// requestBody is a request wire form with a one-pass reader for
// canonical input.
type requestBody interface {
	scan(data []byte) bool
}

// maxBody bounds an admit or resize request body. The largest workload
// TAG encodes in a few KB; a body past the bound is answered 413 with
// the invalid_request envelope, unread beyond it.
const maxBody = 1 << 20

// bodyBufs recycles the buffers request bodies are read into. A buffer
// that grew past keepBuf for an unusually large body is dropped rather
// than kept.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const keepBuf = 64 << 10

// decodeBody reads r's body — at most maxBody bytes — into a pooled
// buffer and decodes it into v: in one pass when the body is in
// tag.Scanner's canonical subset, else with json.Unmarshal, which
// accepts or refuses it as it always has. On failure it has written the
// error reply and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, op string, v requestBody) bool {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= keepBuf {
			bodyBufs.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorStatus(w, http.StatusRequestEntityTooLarge,
				Rejectf(op, InvalidRequest, "body exceeds %d bytes", maxBody))
			return false
		}
		writeError(w, Rejectf(op, InvalidRequest, "reading body: %v", err))
		return false
	}
	if v.scan(buf.Bytes()) {
		return true
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		writeError(w, Rejectf(op, InvalidRequest, "bad JSON: %v", err))
		return false
	}
	return true
}

// graphOf resolves a decoded body's TAG. A missing or invalid TAG is an
// invalid request, worded as when the TAG was decoded on its own.
func graphOf(op string, w *tag.Wire) (*tag.Graph, error) {
	if w == nil {
		return nil, Rejectf(op, InvalidRequest, "missing tag")
	}
	g, err := w.Graph()
	if err != nil {
		return nil, Rejectf(op, InvalidRequest, "bad JSON: %v", err)
	}
	return g, nil
}

// grantBody is the grant representation: admit and resize return it
// without the TAG (the client sent it), GET with the TAG the grant
// currently guarantees.
type grantBody struct {
	ID           string     `json:"id"`
	Shard        int        `json:"shard"`
	VMs          int        `json:"vms"`
	Servers      int        `json:"servers"`
	ReservedMbps float64    `json:"reserved_mbps"`
	TAG          *tag.Graph `json:"tag,omitempty"`
}

// errorBody is the uniform error envelope: every rejection carries its
// typed Reason code.
type errorBody struct {
	Error struct {
		Reason  string `json:"reason"`
		Message string `json:"message"`
	} `json:"error"`
}

// statusOf maps a rejection Reason to an HTTP status: malformed
// requests are client errors, capacity rejections are 409 Conflict
// (the datacenter cannot host the tenant right now), a closed or wedged
// service is 503, and operations on released grants are 410 Gone.
func statusOf(reason Reason) int {
	switch reason {
	case InvalidRequest:
		return http.StatusBadRequest
	case Unsupported:
		return http.StatusUnprocessableEntity
	case Released:
		return http.StatusGone
	case ShuttingDown:
		return http.StatusServiceUnavailable
	case Canceled:
		return 499 // client closed request (nginx convention)
	case NoSlots, InsufficientBandwidth, InsufficientResources, NoPlacement:
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// writeError serializes err with its typed Reason (falling back to
// "internal" for untyped failures, which should not happen).
func writeError(w http.ResponseWriter, err error) {
	writeErrorStatus(w, statusOf(ReasonOf(err)), err)
}

// writeErrorStatus serializes err like writeError, under the given
// status.
func writeErrorStatus(w http.ResponseWriter, status int, err error) {
	body := errorBody{}
	body.Error.Reason = "internal"
	body.Error.Message = err.Error()
	if reason := ReasonOf(err); reason != "" {
		body.Error.Reason = string(reason)
	}
	writeJSON(w, status, body)
}

// writeNotFound reports an unknown grant id with the server-level
// "not_found" code (the taxonomy covers admission outcomes; an id that
// never existed is a routing miss, not a rejection).
func writeNotFound(w http.ResponseWriter, id string) {
	body := errorBody{}
	body.Error.Reason = "not_found"
	body.Error.Message = fmt.Sprintf("no grant %q", id)
	writeJSON(w, http.StatusNotFound, body)
}

// writeJSON writes v as one line of compact JSON (pipe it to jq to
// read it).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // nothing to do about a failed write
}

// body renders a registered grant under the grant's lock, with the TAG
// it currently guarantees when withTAG is set.
func (sg *servedGrant) body(id string, withTAG bool) grantBody {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	res := sg.grant.Reservation()
	b := grantBody{
		ID:           id,
		Shard:        sg.grant.Shard(),
		VMs:          res.Placement().VMs(),
		Servers:      len(res.Placement()),
		ReservedMbps: res.TotalReserved(),
	}
	if withTAG {
		b.TAG = sg.graph
	}
	return b
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var body admitBody
	if !decodeBody(w, r, "admit", &body) {
		return
	}
	g, err := graphOf("admit", body.TAG)
	if err != nil {
		writeError(w, err)
		return
	}
	if body.ID < 0 {
		writeError(w, Rejectf("admit", InvalidRequest, "id %d is not positive", body.ID))
		return
	}
	// The id is claimed before the admission so its number can ride
	// along as Request.ID: a durable service logs it, and a recovered
	// server rebinds the grant under the same URL (a failed admission
	// burns a minted number — ids are unique, not dense).
	id, n, ok := s.claim(body.ID)
	if !ok {
		writeError(w, Rejectf("admit", InvalidRequest, "id %d is held by grant %s", body.ID, grantID(body.ID)))
		return
	}
	grant, err := s.svc.Admit(r.Context(), Request{
		ID:        n,
		Graph:     g,
		HA:        HASpec{RWCS: body.RWCS, LAA: body.LAA, Opportunistic: body.Opportunistic},
		Resources: body.Resources,
	})
	if err != nil {
		s.settle(id, nil)
		writeError(w, err)
		return
	}
	sg := &servedGrant{grant: grant, graph: g}
	s.settle(id, sg)
	resp := sg.body(id, false)
	w.Header().Set("Location", "/v1/guarantees/"+id)
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sg, ok := s.grants[id]
	s.mu.Unlock()
	if !ok {
		writeNotFound(w, id)
		return
	}
	writeJSON(w, http.StatusOK, sg.body(id, true))
}

func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var body resizeBody
	if !decodeBody(w, r, "resize", &body) {
		return
	}
	g, err := graphOf("resize", body.TAG)
	if err != nil {
		writeError(w, err)
		return
	}
	// The registry lock covers only the lookup; the grant's own lock
	// serializes resizes of one tenant (and keeps the stored graph in
	// step with what actually committed), so a placement search for one
	// grant never blocks admits, gets, or resizes of others.
	s.mu.Lock()
	sg, ok := s.grants[id]
	s.mu.Unlock()
	if !ok {
		writeNotFound(w, id)
		return
	}
	sg.mu.Lock()
	if err := sg.grant.Resize(r.Context(), g); err != nil {
		sg.mu.Unlock()
		writeError(w, err)
		return
	}
	sg.graph = g
	sg.mu.Unlock()
	writeJSON(w, http.StatusOK, sg.body(id, false))
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sg, ok := s.grants[id]
	delete(s.grants, id)
	s.mu.Unlock()
	if !ok {
		writeNotFound(w, id)
		return
	}
	sg.grant.Release()
	w.WriteHeader(http.StatusNoContent)
}

// statsBody is the /v1/stats wire form.
type statsBody struct {
	Algorithm string `json:"algorithm"`
	Policy    string `json:"policy"`
	Shards    int    `json:"shards"`
	Stats     Stats  `json:"stats"`
	Loads     []Load `json:"loads"`
	Live      int    `json:"live_grants"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	live := len(s.grants)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statsBody{
		Algorithm: s.svc.Name(),
		Policy:    s.svc.Policy(),
		Shards:    s.svc.Shards(),
		Stats:     s.svc.Stats(),
		Loads:     s.svc.Loads(),
		Live:      live,
	})
}

// enforcementBody is the /v1/enforcement wire form: the outcome of one
// control period, aggregates only (GET /v1/guarantees/{id}/enforcement
// serves one grant's pairs). Components counts the period's components
// (tenants connected through contended links), Solved how many of
// them it re-solved rather than skipped at their fixed point, and
// Contended how many hold a contended link, where a guarantee can bind;
// all come from the report itself, so they describe the same period as
// the rates beside them.
type enforcementBody struct {
	Shards         int                 `json:"shards"`
	Tenants        int                 `json:"tenants"`
	Pairs          int                 `json:"pairs"`
	Colocated      int                 `json:"colocated_pairs"`
	GuaranteedMbps float64             `json:"guaranteed_mbps"`
	BaseMbps       float64             `json:"base_mbps"`
	AchievedMbps   float64             `json:"achieved_mbps"`
	SpareMbps      float64             `json:"spare_mbps"`
	MinRatio       float64             `json:"min_ratio"`
	Components     int                 `json:"components"`
	Solved         int                 `json:"solved_components"`
	Contended      int                 `json:"contended_components"`
	Events         enforcementEvents   `json:"events"`
	PerTenant      []enforcementTenant `json:"per_tenant"`
}

// enforcementEvents mirrors the dataplane's lifecycle counters.
type enforcementEvents struct {
	Admitted     int64 `json:"admitted"`
	Resized      int64 `json:"resized"`
	Released     int64 `json:"released"`
	Skipped      int64 `json:"skipped"`
	FabricBuilds int64 `json:"fabric_builds"`
}

// enforcementTenant is one tenant's slice of the control period. Pairs
// counts enforced (fabric-crossing) flows and Colocated intra-server
// ones, and BaseMbps sums min(demand, guarantee), the amount MinRatio is
// measured against, like the top-level fields of the same names.
type enforcementTenant struct {
	Shard          int     `json:"shard"`
	Key            int64   `json:"key"`
	ID             int64   `json:"id"`
	Pairs          int     `json:"pairs"`
	Colocated      int     `json:"colocated_pairs"`
	GuaranteedMbps float64 `json:"guaranteed_mbps"`
	BaseMbps       float64 `json:"base_mbps"`
	AchievedMbps   float64 `json:"achieved_mbps"`
	SpareMbps      float64 `json:"spare_mbps"`
	MinRatio       float64 `json:"min_ratio"`
}

// handleEnforcementStep advances the enforcement plane one control
// period and reports the outcome — the mutating endpoint (each call
// moves every rate limiter one alpha step, so it is a POST: polling a
// GET must never change enforcement behavior). 422 when the service
// was built without enforcement.
func (s *Server) handleEnforcementStep(w http.ResponseWriter, r *http.Request) {
	enf := s.svc.Enforcement()
	if enf == nil {
		writeError(w, Rejectf("enforce", Unsupported,
			"enforcement not enabled: start the service with WithEnforcement (bwd -enforce)"))
		return
	}
	s.enfMu.Lock()
	rep, err := enf.Step()
	if err != nil {
		s.enfMu.Unlock()
		writeError(w, err)
		return
	}
	body := enforcementReportBody(enf, rep)
	s.lastEnforcement = &body
	s.enfMu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

// handleEnforcementGet reports enforcement state read-only: the
// lifecycle counters (always current) plus the outcome of the most
// recent control period, if any has run. It never advances the loop.
func (s *Server) handleEnforcementGet(w http.ResponseWriter, r *http.Request) {
	enf := s.svc.Enforcement()
	if enf == nil {
		writeError(w, Rejectf("enforce", Unsupported,
			"enforcement not enabled: start the service with WithEnforcement (bwd -enforce)"))
		return
	}
	s.enfMu.Lock()
	last := s.lastEnforcement
	s.enfMu.Unlock()
	if last != nil {
		// Refresh the counters — lifecycle events flow regardless of
		// control periods — but keep the cached period outcome.
		body := *last
		body.Events = eventsBody(enf.Counters())
		writeJSON(w, http.StatusOK, body)
		return
	}
	c := enf.Counters()
	writeJSON(w, http.StatusOK, enforcementBody{
		Shards:    enf.Shards(),
		MinRatio:  1,
		Events:    eventsBody(c),
		PerTenant: []enforcementTenant{},
	})
}

// eventsBody mirrors the dataplane counters into the wire form.
func eventsBody(c EnforcementCounters) enforcementEvents {
	return enforcementEvents{
		Admitted:     c.Admitted,
		Resized:      c.Resized,
		Released:     c.Released,
		Skipped:      c.Skipped,
		FabricBuilds: c.FabricBuilds,
	}
}

// enforcementReportBody flattens one control period's report and the
// per-tenant rows it was folded from. The aggregates come from rep, the
// rows from the drivers: the caller reads them before any later period
// runs (handleEnforcementStep holds enfMu), so the rows fold into the
// body's sums.
func enforcementReportBody(enf *Enforcement, rep *EnforcementReport) enforcementBody {
	body := enforcementBody{
		Shards:         enf.Shards(),
		Tenants:        rep.Tenants,
		Pairs:          rep.Pairs,
		Colocated:      rep.Colocated,
		GuaranteedMbps: rep.GuaranteedMbps,
		BaseMbps:       rep.BaseMbps,
		AchievedMbps:   rep.AchievedMbps,
		SpareMbps:      rep.SpareMbps,
		MinRatio:       rep.MinRatio,
		Components:     rep.Components,
		Solved:         rep.Solved,
		Contended:      rep.Contended,
		Events:         eventsBody(enf.Counters()),
		PerTenant:      []enforcementTenant{},
	}
	for shard := range rep.PerShard {
		for _, ts := range enf.Tenants(shard) {
			body.PerTenant = append(body.PerTenant, enforcementTenant{
				Shard:          shard,
				Key:            ts.Key,
				ID:             ts.ID,
				Pairs:          ts.Pairs,
				Colocated:      ts.Colocated,
				GuaranteedMbps: ts.GuaranteedMbps,
				BaseMbps:       ts.BaseMbps,
				AchievedMbps:   ts.AchievedMbps,
				SpareMbps:      ts.SpareMbps,
				MinRatio:       ts.MinRatio,
			})
		}
	}
	return body
}

// grantEnforcementBody is the /v1/guarantees/{id}/enforcement wire
// form: one grant's flows as Enforcement.Pairs reports them — is this
// tenant getting its guarantee right now.
type grantEnforcementBody struct {
	ID        string            `json:"id"`
	Shard     int               `json:"shard"`
	Pairs     int               `json:"pairs"`
	Colocated int               `json:"colocated_pairs"`
	Flows     []enforcementPair `json:"flows"`
}

// enforcementPair is one flow on the wire. A backlogged (Greedy) source
// offers +Inf, which JSON cannot carry: its demand_mbps is null and
// greedy is true. rate_mbps is null only for a colocated Greedy flow,
// which is unenforced and as unbounded as its demand.
type enforcementPair struct {
	Src           int      `json:"src"`
	Dst           int      `json:"dst"`
	Colocated     bool     `json:"colocated"`
	Greedy        bool     `json:"greedy"`
	DemandMbps    *float64 `json:"demand_mbps"`
	GuaranteeMbps float64  `json:"guarantee_mbps"`
	RateMbps      *float64 `json:"rate_mbps"`
}

// finiteOrNull is the JSON encoding of a rate that may be unbounded.
func finiteOrNull(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// handleGrantEnforcement reports one grant's per-pair enforcement state
// read-only: the rows of the last control period, or the declaration as
// it stands if it changed since (Enforcement.Pairs). 422 when the
// service was built without enforcement; 400 for a grant the dataplane
// does not enforce.
func (s *Server) handleGrantEnforcement(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sg, ok := s.grants[id]
	s.mu.Unlock()
	if !ok {
		writeNotFound(w, id)
		return
	}
	pairs, err := s.svc.Enforcement().Pairs(sg.grant)
	if err != nil {
		writeError(w, err)
		return
	}
	body := grantEnforcementBody{ID: id, Shard: sg.grant.Shard(), Flows: make([]enforcementPair, len(pairs))}
	for i, p := range pairs {
		if p.Colocated {
			body.Colocated++
		} else {
			body.Pairs++
		}
		body.Flows[i] = enforcementPair{
			Src:           p.Src,
			Dst:           p.Dst,
			Colocated:     p.Colocated,
			Greedy:        math.IsInf(p.Demand, 1),
			DemandMbps:    finiteOrNull(p.Demand),
			GuaranteeMbps: p.Guarantee,
			RateMbps:      finiteOrNull(p.Rate),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// healthzBody is the /v1/healthz wire form: liveness plus, for
// durable services, the write-ahead log position — Records is the
// replay lag a crash right now would cost.
type healthzBody struct {
	Status  string    `json:"status"`
	Durable bool      `json:"durable"`
	WAL     *WALStats `json:"wal,omitempty"`
}

// handleHealthz reports liveness and durability health: an in-memory
// service is simply "ok"; a durable one adds its WAL lag and last
// snapshot so operators can alarm on unbounded replay cost.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{Status: "ok"}
	if dur := s.svc.Durability(); dur != nil {
		body.Durable = true
		st := dur.Stats()
		body.WAL = &st
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSnapshot forces a snapshot now, truncating the write-ahead
// log, and reports the resulting log position. 422 for in-memory
// services; 503 once the service is closed or wedged.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	dur := s.svc.Durability()
	if dur == nil {
		writeError(w, Rejectf("snapshot", Unsupported,
			"durability not enabled: start the service with WithDurability (bwd -wal-dir)"))
		return
	}
	if err := dur.Snapshot(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, dur.Stats())
}

// handleWAL reports the write-ahead log position read-only. 422 for
// in-memory services.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	dur := s.svc.Durability()
	if dur == nil {
		writeError(w, Rejectf("wal", Unsupported,
			"durability not enabled: start the service with WithDurability (bwd -wal-dir)"))
		return
	}
	writeJSON(w, http.StatusOK, dur.Stats())
}

// Rejectf builds a typed rejection; exported so API layers above the
// Service (like this server) classify their own failures with the same
// taxonomy.
func Rejectf(op string, reason Reason, format string, args ...any) *RejectionError {
	return place.Rejectf(op, reason, format, args...)
}
