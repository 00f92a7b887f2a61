package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/place"
)

// outcome is what a target reports for one executed op.
type outcome struct {
	// code is "ok" or the typed capacity-rejection reason.
	code string
	// vms, servers and reserved describe the grant after the op (zero
	// for a release or a rejection).
	vms, servers int
	reserved     float64
	// ns is the caller-observed duration: the call into the Service, or
	// the HTTP round trip up to the last byte of the response body.
	ns int64
}

const codeOK = "ok"

// target executes ops against one deployment of the controller. An
// error means the op failed — a transport error, an untyped error, a
// status that is neither success nor a typed capacity rejection.
type target interface {
	do(o *op) (outcome, error)
}

// libTarget drives a guarantee.Service in process.
type libTarget struct {
	svc    guarantee.Service
	grants []guarantee.Grant // by tenant
}

func newLibTarget(svc guarantee.Service, arrivals int) *libTarget {
	return &libTarget{svc: svc, grants: make([]guarantee.Grant, arrivals)}
}

func (t *libTarget) do(o *op) (outcome, error) {
	ctx := context.Background()
	var out outcome
	var err error
	start := time.Now()
	switch o.kind {
	case opAdmit:
		var g guarantee.Grant
		g, err = t.svc.Admit(ctx, guarantee.Request{ID: int64(o.tenant + 1), Graph: o.graph})
		out.ns = int64(time.Since(start))
		if err == nil {
			t.grants[o.tenant] = g
			out.describe(g)
		}
	case opResize:
		g := t.grants[o.tenant]
		err = g.Resize(ctx, o.graph)
		out.ns = int64(time.Since(start))
		if err == nil {
			out.describe(g)
		}
	case opRelease:
		t.grants[o.tenant].Release()
		out.ns = int64(time.Since(start))
		t.grants[o.tenant] = nil
	}
	if err != nil {
		if !errors.Is(err, place.ErrRejected) {
			return out, fmt.Errorf("%s tenant %d: %w", o.kind, o.tenant, err)
		}
		out.code = string(guarantee.ReasonOf(err))
		return out, nil
	}
	out.code = codeOK
	return out, nil
}

// describe copies the grant's footprint the way the HTTP API reports it.
func (o *outcome) describe(g guarantee.Grant) {
	res := g.Reservation()
	o.vms = res.Placement().VMs()
	o.servers = len(res.Placement())
	o.reserved = res.TotalReserved()
}

// transcript hashes every decision of a run, so two runs of the same
// stream can be compared without keeping either.
type transcript struct {
	h   hash.Hash
	buf []byte
}

func newTranscript() *transcript { return &transcript{h: sha256.New()} }

func (t *transcript) add(seq int, kind opKind, out *outcome) {
	b := t.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(seq))
	b = append(b, byte(kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(out.code)))
	b = append(b, out.code...)
	b = binary.LittleEndian.AppendUint32(b, uint32(out.vms))
	b = binary.LittleEndian.AppendUint32(b, uint32(out.servers))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(out.reserved))
	t.h.Write(b)
	t.buf = b
}

func (t *transcript) sum() string { return fmt.Sprintf("%x", t.h.Sum(nil)) }

// tally counts a run's outcomes the way Service.Stats does.
type tally struct {
	admitted, rejected, resized, resizeRejected, released int64
}

// admissionRun is what one replay of a stream measured.
type admissionRun struct {
	hash string
	tally
	// Timed phase only, nanoseconds: successful admits, rejected
	// admits, resizes (either outcome), releases.
	admit, reject, resize, release samples
	wallNS, callNS                 int64   // timed phase: wall, and the part spent inside target calls
	quietNS                        float64 // timed phase in a quiet box's time
	admitQuiet                     samples // admit in a quiet box's time
	ops                            int     // ops executed in the timed phase
	attempted                      int     // whole run
	requestedBW, admittedBW        float64 // timed phase, Mbps over admit attempts
	failures
}

// failures counts failed operations and checks and keeps the first few
// causes.
type failures struct {
	failed int
	errs   []error
}

func (f *failures) fail(err error) {
	f.failed++
	if len(f.errs) < 10 {
		f.errs = append(f.errs, err)
	}
}

// check counts err, if there is one, as a failed check.
func (f *failures) check(err error) {
	if err != nil {
		f.fail(err)
	}
}

// merge adds another count to this one.
func (f *failures) merge(o failures) {
	f.failed += o.failed
	for _, err := range o.errs {
		if len(f.errs) < 10 {
			f.errs = append(f.errs, err)
		}
	}
}

// segments is how many equal slices the timed phase is cut into. The
// reference work is read between them, so each slice's wall time is
// brought to a quiet box's time by the readings around it, and the
// checks that walk the ledger run between them, outside the clock.
const segments = 20

// hooks let a workload observe a replay at its phase boundaries. They
// run between segments, outside every timed interval.
type hooks struct {
	tr         *tracer      // traced run: every op becomes a root span, bench.op
	ref        *reference   // untraced run: read after every segment
	timedStart func()       // the first timed op is next
	timedEnd   func() error // the last timed op returned; the drain is next
	checkpoint func() error // after every second segment: ten times
}

// replay runs the stream against the target with one serial caller and
// returns what it measured. Ops of a tenant whose admission was
// rejected are dropped. A failed op or hook is recorded, counted, and
// does not stop the replay.
func replay(st *stream, tgt target, hk hooks) *admissionRun {
	run := &admissionRun{}
	tr := newTranscript()
	live := make([]bool, st.arrivals)
	// exec runs ops[lo:hi] and returns how many it executed.
	exec := func(lo, hi int, timed bool) int {
		done := 0
		for i := lo; i < hi; i++ {
			o := &st.ops[i]
			if o.kind != opAdmit && !live[o.tenant] {
				continue
			}
			run.attempted++
			hk.tr.nextOp(i)
			sp := hk.tr.begin("bench.op")
			out, err := tgt.do(o)
			hk.tr.end(sp, err == nil)
			if err != nil {
				run.fail(err)
				continue
			}
			done++
			tr.add(i, o.kind, &out)
			ok := out.code == codeOK
			switch o.kind {
			case opAdmit:
				live[o.tenant] = ok
				if ok {
					run.admitted++
				} else {
					run.rejected++
				}
			case opResize:
				if ok {
					run.resized++
				} else {
					run.resizeRejected++
				}
			case opRelease:
				live[o.tenant] = false
				run.released++
			}
			if timed {
				run.record(o, &out)
			}
		}
		return done
	}

	exec(0, st.warm, false)
	if hk.timedStart != nil {
		hk.timedStart()
	}
	phase := hk.ref.startPhase()
	for k := 0; k < segments; k++ {
		lo := st.warm + k*(st.tail-st.warm)/segments
		hi := st.warm + (k+1)*(st.tail-st.warm)/segments
		start := time.Now()
		done := exec(lo, hi, true)
		wall := int64(time.Since(start))
		phase.end(wall, len(run.admit))
		run.wallNS += wall
		run.ops += done
		if hk.checkpoint != nil && k%2 == 1 {
			run.check(hk.checkpoint())
		}
	}
	run.quietNS, run.admitQuiet = phase.quiet(run.admit)
	if hk.timedEnd != nil {
		run.check(hk.timedEnd())
	}
	exec(st.tail, len(st.ops), false)
	run.hash = tr.sum()
	return run
}

// record files one timed op's latency and bandwidth.
func (run *admissionRun) record(o *op, out *outcome) {
	ok := out.code == codeOK
	run.callNS += out.ns
	switch {
	case o.kind == opAdmit && ok:
		run.admit = append(run.admit, out.ns)
	case o.kind == opAdmit:
		run.reject = append(run.reject, out.ns)
	case o.kind == opResize:
		run.resize = append(run.resize, out.ns)
	default:
		run.release = append(run.release, out.ns)
	}
	if o.kind == opAdmit {
		bw := o.graph.AggregateBandwidth()
		run.requestedBW += bw
		if ok {
			run.admittedBW += bw
		}
	}
}
