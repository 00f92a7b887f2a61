package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cloudmirror/guarantee"
)

// httpStack is one deployment of the HTTP API a stream is replayed
// against: a bwd child, or the handler served in process.
type httpStack struct {
	tgt    *httpTarget
	daemon *daemon               // bwd child, nil in process
	svc    guarantee.Service     // in process only
	stop   func()                // in process only
	state  map[string]grantState // last acknowledged state of each live grant
	gone   []string              // ids of released grants
	wal    *walWatch             // durable, in process
	bin    string                // bwd binary
	dir    string                // ledger directory, "" in memory
}

// do runs the op and keeps the acknowledged state check 5 compares a
// recovered daemon with.
func (s *httpStack) do(o *op) (outcome, error) {
	id := s.tgt.ids[o.tenant]
	out, err := s.tgt.do(o)
	if err == nil && out.code == codeOK {
		switch o.kind {
		case opAdmit:
			s.state[s.tgt.ids[o.tenant]] = grantState{out.vms, out.servers, out.reserved}
		case opResize:
			s.state[id] = grantState{out.vms, out.servers, out.reserved}
		case opRelease:
			delete(s.state, id)
			s.gone = append(s.gone, id)
		}
	}
	if s.wal != nil {
		s.wal.observe()
	}
	return out, err
}

// serverTally reads GET /v1/stats.
func (s *httpStack) serverTally() (serverTally, error) {
	var body serverStats
	status, err := s.tgt.getJSON("/v1/stats", &body)
	if err != nil {
		return serverTally{}, err
	}
	if status != http.StatusOK {
		return serverTally{}, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	t := serverTally{admitted: body.Stats.Admitted, rejected: body.Stats.Rejected, failed: body.Stats.Failed,
		released: body.Stats.Released, resized: body.Stats.Resized}
	for _, ld := range body.Loads {
		t.slotsUsed += ld.SlotsUsed
		t.reservedMbps += ld.ReservedMbps
		t.tenants += ld.Tenants
	}
	return t, nil
}

// checkTally is check 2 against the drained deployment.
func (s *httpStack) checkTally(run *admissionRun) error {
	t, err := s.serverTally()
	if err != nil {
		return err
	}
	return checkTally(run.tally, t, true)
}

// close stops the deployment and removes its ledger.
func (s *httpStack) close() {
	if s.daemon != nil {
		s.daemon.kill()
	}
	if s.stop != nil {
		s.stop()
	}
	if s.svc != nil {
		s.svc.Close(context.Background())
	}
	if s.dir != "" {
		removeScratch(s.dir)
	}
}

// startBwd boots a bwd child, durable or in memory.
func startBwd(bin string, arrivals int, durable bool) (*httpStack, error) {
	s := &httpStack{bin: bin, state: make(map[string]grantState)}
	client := newClient()
	var flags []string
	if durable {
		dir, err := scratchDir("wal-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		// bwd creates the ledger in a directory that does not hold one.
		flags = []string{"-wal-dir", filepath.Join(dir, "ledger")}
	}
	d, err := startDaemon(bin, client, flags...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.daemon = d
	s.tgt = newHTTPTarget(d.base, client, arrivals)
	return s, nil
}

// crashAndRecover kills the daemon with SIGKILL, restarts it on the
// same ledger, and runs check 5 against what it had acknowledged. It
// returns kill-to-healthy in nanoseconds.
//
// SIGKILL leaves the OS page cache intact, so this proves every
// acknowledged operation was logged before it was acknowledged, not
// that the log reached the medium.
func (s *httpStack) crashAndRecover() (int64, error) {
	before, err := s.serverTally()
	if err != nil {
		return 0, err
	}
	s.daemon.kill()
	d, err := startDaemon(s.bin, s.tgt.client, "-wal-dir", filepath.Join(s.dir, "ledger"))
	if err != nil {
		return 0, err
	}
	s.daemon = d
	s.tgt.base = d.base
	after, err := s.serverTally()
	if err != nil {
		return 0, err
	}
	// Every live grant is compared; of the released ones, the most
	// recent 256 (a stale registry entry is what a bug would leave).
	gone := s.gone
	if len(gone) > 256 {
		gone = gone[len(gone)-256:]
	}
	get := func(id string) (grantState, bool, error) {
		var g grantReply
		status, _, err := s.tgt.roundTrip(http.MethodGet, "/v1/guarantees/"+id, nil)
		if err == nil && status == http.StatusOK {
			err = g.parse(s.tgt.buf.Bytes())
		}
		if err != nil {
			return grantState{}, false, err
		}
		switch status {
		case http.StatusOK:
			return grantState{g.VMs, g.Servers, g.ReservedMbps}, true, nil
		case http.StatusNotFound:
			return grantState{}, false, nil
		}
		return grantState{}, false, fmt.Errorf("status %d", status)
	}
	return d.bootNS, checkRecovered(s.state, get, gone, before, after)
}

// serveLocal serves the HTTP API in process over a loopback listener:
// the reference and the traced twin of a bwd child.
func serveLocal(arrivals int, durable bool, tr *tracer) (*httpStack, error) {
	s := &httpStack{state: make(map[string]grantState)}
	var opts []guarantee.Option
	if durable {
		dir, err := scratchDir("wal-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		// A durable ledger persists its algorithm by name, so the
		// placer cannot be wrapped here.
		opts = append(opts, guarantee.WithDurability(filepath.Join(dir, "ledger")))
	} else if tr != nil {
		opts = append(opts, withTracedPlacer(tr))
	}
	svc, err := newService(opts...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.svc = svc
	var h http.Handler
	if tr != nil {
		h = tracedHandler{guarantee.NewServer(tracedService{svc, tr}).Handler(), tr}
	} else {
		h = guarantee.NewServer(svc).Handler()
	}
	base, stop, err := serveInProcess(h)
	if err != nil {
		s.close()
		return nil, err
	}
	s.stop = stop
	s.tgt = newHTTPTarget(base, newClient(), arrivals)
	s.tgt.tr = tr
	if durable {
		s.wal = &walWatch{dur: svc.Durability()}
	}
	return s, nil
}

// walWatch observes the write-ahead log from outside, through
// Durability.Stats after every op: record and byte counts restart at
// each snapshot, so only per-op deltas add up.
type walWatch struct {
	dur                       *guarantee.Durability
	on                        bool
	prev                      guarantee.WALStats
	records, bytes, snapshots uint64
	fsyncs                    uint64
	snapshotBytes             int64
}

func (w *walWatch) start() {
	w.prev = w.dur.Stats()
	w.on = true
}

func (w *walWatch) observe() {
	if !w.on {
		return
	}
	cur := w.dur.Stats()
	w.fsyncs += cur.Fsyncs - w.prev.Fsyncs
	if cur.Gen == w.prev.Gen {
		w.records += cur.Records - w.prev.Records
		w.bytes += uint64(cur.Offset - w.prev.Offset)
	} else {
		// The op's record closed the old generation and a snapshot
		// replaced it: one record, of about the running mean size.
		w.snapshots += cur.Gen - w.prev.Gen
		w.records++
		if w.records > 1 {
			w.bytes += w.bytes / (w.records - 1)
		}
	}
	w.snapshotBytes = cur.SnapshotBytes
	w.prev = cur
}

func (w *walWatch) report(res *result, ops int) {
	n := float64(ops)
	res.set("wal.fsyncs_per_op", float64(w.fsyncs)/n, 0)
	res.set("wal.records_per_op", float64(w.records)/n, 0)
	res.set("wal.bytes_per_op", float64(w.bytes)/n, 0)
	res.set("wal.snapshots", float64(w.snapshots), 0)
	res.set("wal.snapshot_bytes", float64(w.snapshotBytes), 0)
}

// runHTTP measures an admission stream over the HTTP API.
func runHTTP(name string, sz admissionSizes, seed int64, durable, traced bool) (*result, error) {
	st, err := generate(sz.gen, seed)
	if err != nil {
		return nil, err
	}
	bin, err := bwdBinary()
	if err != nil {
		return nil, err
	}
	res := newResult(name, traced)
	if traced {
		return res, traceHTTP(res, st, sz, seed, bin, durable)
	}
	return res, measureHTTP(res, st, sz, bin, durable)
}

// measureHTTP is the untraced run: the real bwd binary as a child
// process, checked against an in-process replay of the same stream.
func measureHTTP(res *result, st *stream, sz admissionSizes, bin string, durable bool) error {
	svc, err := newService()
	if err != nil {
		return err
	}
	inProcess := replay(st, newLibTarget(svc, st.arrivals), hooks{})
	ref, err := newReference(sz.mix)
	if err != nil {
		return err
	}
	defer ref.close()

	// Set-ups beyond the first boot a daemon, warm it up and drop it.
	var setups setupTimes
	for k := 1; k < sz.setups; k++ {
		clock := ref.startSetup()
		s, err := startBwd(bin, st.arrivals, durable)
		if err != nil {
			return err
		}
		replay(st.warmOnly(), s, hooks{})
		clock.stop(&setups)
		s.close()
	}
	clock := ref.startSetup()
	s, err := startBwd(bin, st.arrivals, durable)
	if err != nil {
		return err
	}
	defer s.close()
	boot := s.daemon.bootNS
	var recoveries []float64
	var rss float64
	run := replay(st, s, hooks{
		ref:        ref,
		timedStart: func() { clock.stop(&setups) },
		timedEnd: func() error {
			// The daemon that served the stream is about to be killed.
			var err error
			if rss, err = peakRSSMB(s.daemon.cmd.Process.Pid); err != nil || !durable {
				return err
			}
			for c := 0; c < sz.crashCycles; c++ {
				ns, err := s.crashAndRecover()
				if err != nil {
					return err
				}
				recoveries = append(recoveries, ms(ns))
			}
			return nil
		},
	})
	run.check(checkTranscript(res.workload, run.hash, inProcess.hash))
	run.check(s.checkTally(run))
	res.finish(run, &setups, ref, rss)
	if durable {
		res.set("bwd.recovery_ms_p50", median(recoveries), len(recoveries))
	}
	res.set("bwd.boot_ms", ms(boot), 0)
	return nil
}

// traceHTTP is the traced run: the API served in process, first bare
// (the reference decisions and the untraced pace), then with every
// layer wrapped.
func traceHTTP(res *result, st *stream, sz admissionSizes, seed int64, bin string, durable bool) error {
	pass := func(tr *tracer) (*admissionRun, error) {
		s, err := serveLocal(st.arrivals, durable, tr)
		if err != nil {
			return nil, err
		}
		defer s.close()
		var mem memDelta
		var req0, resp0, trips0 int64
		run := replay(st, s, hooks{
			tr: tr,
			timedStart: func() {
				req0, resp0, trips0 = s.tgt.reqBytes, s.tgt.respBytes, s.tgt.roundTrips
				if s.wal != nil {
					s.wal.start()
				}
				mem.start()
				tr.enable(true)
			},
			timedEnd: func() error {
				tr.enable(false)
				mem.stop()
				if tr == nil {
					return nil
				}
				trips := float64(s.tgt.roundTrips - trips0)
				res.set("bwd.req_bytes_mean", float64(s.tgt.reqBytes-req0)/trips, int(trips))
				res.set("bwd.resp_bytes_mean", float64(s.tgt.respBytes-resp0)/trips, int(trips))
				if s.wal == nil {
					return nil
				}
				s.wal.on = false
				return durabilityProbes(res, s, bin, sz.crashCycles)
			},
		})
		run.check(s.checkTally(run))
		if tr != nil {
			mem.report(res, run.ops)
			if s.wal != nil {
				s.wal.report(res, run.ops)
			}
		}
		return run, nil
	}
	ref, err := pass(nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	run, err := pass(tr)
	if err != nil {
		return err
	}
	if err := finishTraced(res, st, seed, tr, run, ref); err != nil {
		return err
	}

	// bwd.boot_ms needs the real binary: exec to healthy, three times.
	var boots []float64
	for k := 0; k < 3; k++ {
		s, err := startBwd(bin, 0, false)
		if err != nil {
			return err
		}
		boots = append(boots, ms(s.daemon.bootNS))
		s.close()
	}
	res.set("bwd.boot_ms", median(boots), len(boots))
	return nil
}

// durabilityProbes runs at the end of the traced durable replay, with
// the ledger loaded: five forced snapshots, then — on a copy of the
// ledger directory, which with no request in flight is exactly what a
// crash would leave — guarantee.Open and the real bwd binary's
// recovery.
func durabilityProbes(res *result, s *httpStack, bin string, cycles int) error {
	ledger := filepath.Join(s.dir, "ledger")
	crashed := filepath.Join(s.dir, "crashed")
	if err := copyDir(ledger, crashed); err != nil {
		return err
	}
	var snaps []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := s.svc.Durability().Snapshot(); err != nil {
			return fmt.Errorf("forced snapshot: %w", err)
		}
		snaps = append(snaps, ms(int64(time.Since(t0))))
	}
	res.set("guarantee.snapshot_ms_p50", median(snaps), len(snaps))

	var recoveries []float64
	for c := 0; c < cycles; c++ {
		d, err := startDaemon(bin, s.tgt.client, "-wal-dir", crashed)
		if err != nil {
			return err
		}
		recoveries = append(recoveries, ms(d.bootNS))
		d.kill()
	}
	res.set("bwd.recovery_ms_p50", median(recoveries), len(recoveries))

	t0 := time.Now()
	svc, err := guarantee.Open(crashed)
	if err != nil {
		return fmt.Errorf("opening the crashed ledger: %w", err)
	}
	res.set("guarantee.open_ms", ms(int64(time.Since(t0))), 0)
	return svc.Close(context.Background())
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
