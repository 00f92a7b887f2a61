package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// The traced run times each layer from outside, by wrapping its public
// surface: the handler, the Service handed to it, and the placer the
// Service was built with. Nothing inside the layers is touched.

// tracedHandler brackets every request the HTTP API serves.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "httpapi.other"
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/guarantees":
		name = "httpapi.admit"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/resize"):
		name = "httpapi.resize"
	case r.Method == http.MethodDelete:
		name = "httpapi.release"
	}
	sp := h.tr.begin(name)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	h.tr.end(sp, sw.status < 400)
}

// tracedService brackets Admit and hands out grants that bracket
// Resize and Release. Every other method is the real Service's. The
// admission workloads run without enforcement, the one consumer that
// needs the Service's own grant type back.
type tracedService struct {
	guarantee.Service
	tr *tracer
}

func (s tracedService) Admit(ctx context.Context, req guarantee.Request) (guarantee.Grant, error) {
	sp := s.tr.begin("guarantee.admit")
	g, err := s.Service.Admit(ctx, req)
	s.tr.end(sp, err == nil)
	if err != nil {
		return nil, err
	}
	return tracedGrant{g, s.tr}, nil
}

type tracedGrant struct {
	guarantee.Grant
	tr *tracer
}

func (g tracedGrant) Resize(ctx context.Context, newGraph *tag.Graph) error {
	sp := g.tr.begin("guarantee.resize")
	err := g.Grant.Resize(ctx, newGraph)
	g.tr.end(sp, err == nil)
	return err
}

func (g tracedGrant) Release() {
	sp := g.tr.begin("guarantee.release")
	g.Grant.Release()
	g.tr.end(sp, true)
}

// tracedPlacer brackets the placement search. It embeds the real
// placer so the optional interfaces the admitter looks for
// (place.DemandObserver, the demand-state accessors) stay promoted.
type tracedPlacer struct {
	*cloudmirror.Placer
	tr *tracer
}

func (p tracedPlacer) Place(req *place.Request) (*place.Reservation, error) {
	sp := p.tr.begin("cloudmirror.place")
	res, err := p.Placer.Place(req)
	p.tr.end(sp, err == nil)
	return res, err
}

func (p tracedPlacer) Resize(res *place.Reservation, oldGraph, newGraph *tag.Graph, tier int, ha place.HASpec) (*place.Reservation, error) {
	sp := p.tr.begin("cloudmirror.resize")
	out, err := p.Placer.Resize(res, oldGraph, newGraph, tier, ha)
	p.tr.end(sp, err == nil)
	return out, err
}

// withTracedPlacer is the guarantee option installing tracedPlacer
// around the default algorithm, cm.
func withTracedPlacer(tr *tracer) guarantee.Option {
	return guarantee.WithPlacer(func(t *topology.Tree) place.Placer {
		return tracedPlacer{cloudmirror.New(t), tr}
	})
}

// serveInProcess serves h on a fresh loopback port and returns its
// base URL and a stop function that returns once the server has ended.
func serveInProcess(h http.Handler) (base string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l) // returns ErrServerClosed after Close
	}()
	return "http://" + l.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// pct reads a percentile of one of a span group's sample sets, 0 if
// the group is absent.
func (st *spanStats) pct(which func(*spanStats) samples, p float64) (int64, int) {
	if st == nil {
		return 0, 0
	}
	s := which(st).sorted()
	return percentile(s, p), len(s)
}

func durOf(st *spanStats) samples    { return st.dur }
func selfOf(st *spanStats) samples   { return st.self }
func failedOf(st *spanStats) samples { return st.durFailed }

// sumOf totals which() over the groups whose name has the prefix.
func sumOf(by map[string]*spanStats, prefix string, which func(*spanStats) samples) int64 {
	var t int64
	for name, st := range by {
		if strings.HasPrefix(name, prefix) {
			t += which(st).sum()
		}
	}
	return t
}

// admissionLayers turns the traced replay's spans into the per-layer
// metrics of the admission stack.
func admissionLayers(res *result, spans []span, run *admissionRun) {
	by := groupSpans(spans)
	wall := float64(run.wallNS)
	setUS := func(name string, st *spanStats, which func(*spanStats) samples, p float64) {
		v, n := st.pct(which, p)
		res.set(name, us(v), n)
	}
	if rt := by["bwd.roundtrip"]; rt != nil {
		setUS("bwd.roundtrip_us_p50", rt, durOf, 0.5)
		setUS("bwd.transport_self_us_p50", rt, selfOf, 0.5)
	}
	if by["httpapi.admit"] != nil {
		setUS("httpapi.admit_us_p50", by["httpapi.admit"], durOf, 0.5)
		setUS("httpapi.admit_self_us_p50", by["httpapi.admit"], selfOf, 0.5)
		setUS("httpapi.resize_self_us_p50", by["httpapi.resize"], selfOf, 0.5)
		setUS("httpapi.release_self_us_p50", by["httpapi.release"], selfOf, 0.5)
		res.set("httpapi.busy_share", float64(sumOf(by, "httpapi.", selfOf))/wall, 0)
	}
	setUS("guarantee.admit_us_p50", by["guarantee.admit"], durOf, 0.5)
	setUS("guarantee.admit_us_p99", by["guarantee.admit"], durOf, 0.99)
	setUS("guarantee.admit_self_us_p50", by["guarantee.admit"], selfOf, 0.5)
	setUS("guarantee.resize_us_p50", by["guarantee.resize"], durOf, 0.5)
	setUS("guarantee.release_us_p50", by["guarantee.release"], durOf, 0.5)
	res.set("guarantee.busy_share", float64(sumOf(by, "guarantee.", selfOf))/wall, 0)
	if pl := by["cloudmirror.place"]; pl != nil {
		setUS("cloudmirror.place_us_p50", pl, durOf, 0.5)
		setUS("cloudmirror.place_us_p99", pl, durOf, 0.99)
		setUS("cloudmirror.reject_us_p50", pl, failedOf, 0.5)
		arrivals := len(run.admit) + len(run.reject)
		res.set("cloudmirror.calls_per_arrival", float64(len(pl.dur))/float64(arrivals), 0)
		res.set("cloudmirror.busy_share", float64(sumOf(by, "cloudmirror.", durOf))/wall, 0)
		res.set("cloudmirror.useful_share", float64(pl.durOK.sum())/float64(pl.dur.sum()), 0)
	}
	res.set("bench.client_busy_share", float64(by["bench.op"].self.sum())/wall, 0)
	res.setUnattributed(1 - float64(rootTime(spans))/wall)
}

// clientLatencies reports the caller-observed latencies by op kind; a
// is run.admit, sorted.
func clientLatencies(res *result, run *admissionRun, a samples) {
	res.set("client.admit_ms_p50", ms(percentile(a, 0.5)), len(a))
	res.set("client.admit_ms_p95", ms(percentile(a, 0.95)), len(a))
	res.set("client.admit_ms_p99", ms(percentile(a, 0.99)), len(a))
	res.set("client.reject_ms_p50", ms(percentile(run.reject.sorted(), 0.5)), len(run.reject))
	res.set("client.resize_ms_p50", ms(percentile(run.resize.sorted(), 0.5)), len(run.resize))
	res.set("client.release_ms_p50", ms(percentile(run.release.sorted(), 0.5)), len(run.release))
	if run.requestedBW > 0 {
		res.set("client.rejected_bw_share", 1-run.admittedBW/run.requestedBW, 0)
	}
	if !res.traced { // the traced run reads it from the bench.op spans
		res.set("bench.client_busy_share", 1-float64(run.callNS)/float64(run.wallNS), 0)
	}
}

// admissionProbes times, off the timed path, the stage costs the
// spans cannot separate: the layer's public function called on the
// stream's own inputs.
func admissionProbes(res *result, st *stream) error {
	const maxInputs = 2000
	var decode, encode, validate samples
	tree := topology.New(topology.PaperSpec())
	for i := range st.ops {
		o := &st.ops[i]
		if o.kind != opAdmit || len(decode) >= maxInputs {
			continue
		}
		body, err := json.Marshal(o.graph)
		if err != nil {
			return err
		}
		var g tag.Graph
		t0 := time.Now()
		err = g.UnmarshalJSON(body)
		decode = append(decode, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = o.graph.MarshalJSON()
		encode = append(encode, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = place.ValidateRequest(tree, &place.Request{Graph: o.graph})
		validate = append(validate, int64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	res.set("tag.decode_us_p50", us(percentile(decode.sorted(), 0.5)), len(decode))
	res.set("tag.encode_us_p50", us(percentile(encode.sorted(), 0.5)), len(encode))
	res.set("place.validate_us_p50", us(percentile(validate.sorted(), 0.5)), len(validate))

	var bracket samples
	snap := tree.NewSnapshot()
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		tree.Save(snap)
		tree.RestoreSnapshot(snap)
		bracket = append(bracket, int64(time.Since(t0)))
	}
	res.set("topology.snapshot_bracket_us_p50", us(percentile(bracket.sorted(), 0.5)), len(bracket))

	var build []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		topology.New(topology.PaperSpec())
		build = append(build, ms(int64(time.Since(t0))))
	}
	res.set("topology.new_ms", median(build), len(build))
	return nil
}
