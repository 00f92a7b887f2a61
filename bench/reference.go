package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark has to be steady on is a few vCPUs of a
// shared host, and what a vCPU delivers there changes by a factor of
// 1.5 to 4, for minutes at a time, with what the host's other guests
// do: a busy sibling hyperthread halves the execution ports, a
// neighbour that sweeps the shared cache slows pointer chasing more
// than that, an overcommitted host delays every wake-up of a second
// process, a busy disk every fsync. Ten runs of one commit taken
// across two such phases spread further than any regression bound
// (the driver saw 40 to 70% on the timings of four workloads), and no
// run length the contract allows averages a phase out.
//
// So every timing this benchmark reports end to end is divided by how
// slow the machine was while it was taken. "How slow" is measured:
// between the segments of the timed phase, and before and after every
// set-up, the benchmark times four small pieces of reference work, one
// per machine resource the controller leans on, written here against
// the standard library only, so that no commit to the repository can
// change them. A reading's slowdown is its cost over the cost of the
// same work on a quiet box, weighted by the workload's mix: the share
// of its quiet-box time each resource accounts for. A reported second
// is therefore a second of a quiet box; the wall-clock values are
// printed next to it. README.md, "Steadiness", has the evidence.

// reading is what the reference work cost at one moment, nanoseconds.
type reading struct {
	compute float64 // four independent integer chains: execution ports, shared with the sibling hyperthread
	cache   float64 // a random walk over 1 MiB, cold (a segment of other work ran since the last one): L2 and L3 capacity, TLB reach, page walks
	wakeup  float64 // 1 KiB loopback round trips to another process: scheduler, TCP stack, netpoller
	fsync   float64 // small appends, each made durable: the disk under the ledger
}

// quiet is a reading on the builder's 2-vCPU box when it is quiet (the
// fastest tenth of 180 runs' median readings). Its only job is to make
// a reported second read like a real one there; both sides of a
// comparison divide by it.
var quiet = reading{compute: 590e3, cache: 3.3e6, wakeup: 1.0e6, fsync: 450e3}

// mix is a workload's resource profile: the share of its quiet-box
// time each resource of a reading accounts for; the shares add up to
// 1. An in-process workload has compute and cache, one with a bwd
// child also wake-ups, one with a ledger also fsyncs. The shares were
// fitted, in steps of 0.05, to 36 runs of each workload on one seed
// taken while the box went through its phases: the mix that leaves the
// least spread in rate and latency after dividing by its slowdown.
type mix reading

// compounding is the power of the reference work's slowdown by which a
// workload slows. Whatever slows one of the small loops of a reading
// — a sibling hyperthread, say — takes from real code its execution
// ports and its L1, its TLB and its branch history at once: over the
// fitting runs every workload slowed by the 1.03rd to 1.56th power of
// what its mix of readings did, and one exponent for all of them
// brought the medians of four ten-seed sets, taken at slowdowns of 1 to
// 2.5, from within 20% of each other to within 12%.
const compounding = 1.2

// slowdown is how much longer work of this mix takes at reading r than
// on a quiet box.
func (m mix) slowdown(r reading) float64 {
	return math.Pow(m.compute*r.compute/quiet.compute+m.cache*r.cache/quiet.cache+
		m.wakeup*r.wakeup/quiet.wakeup+m.fsync*r.fsync/quiet.fsync, compounding)
}

// reference takes readings for one workload. A nil *reference reads a
// slowdown of 1: traced runs and the tests report wall-clock time.
type reference struct {
	mix      mix
	ring     []uint32 // one cycle through 1 MiB
	peer     *daemon  // echo process, when the mix has wake-ups
	conn     net.Conn
	msg      []byte
	file     *os.File // when the mix has fsyncs
	block    [256]byte
	dir      string
	sink     uint64
	readings []reading
	err      error // the first failure of the echo process or the file
}

// newReference prepares the reference work a mix needs: the echo
// process only for a workload that has a second process, the file only
// for one that has a ledger.
func newReference(m mix) (*reference, error) {
	r := &reference{mix: m, ring: make([]uint32, 1<<18)}
	// Sattolo's shuffle: a single cycle through every slot.
	for i := range r.ring {
		r.ring[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(r.ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		r.ring[i], r.ring[j] = r.ring[j], r.ring[i]
	}
	if m.wakeup > 0 {
		if err := r.startPeer(); err != nil {
			r.close()
			return nil, err
		}
	}
	if m.fsync > 0 {
		dir, err := scratchDir("ref-")
		if err != nil {
			r.close()
			return nil, err
		}
		r.dir = dir
		if r.file, err = os.Create(filepath.Join(dir, "appends")); err != nil {
			r.close()
			return nil, err
		}
	}
	r.read() // the first reading pays for the page faults
	r.readings = r.readings[:0]
	return r, nil
}

// startPeer runs this binary as the echo process and connects to it.
func (r *reference) startPeer() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-echo")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting the echo process: %w", err)
	}
	r.peer = &daemon{cmd: cmd}
	r.peer.register()
	var addr string
	if _, err := fmt.Fscanln(out, &addr); err != nil {
		return fmt.Errorf("echo process: %w", err)
	}
	if r.conn, err = net.Dial("tcp", addr); err != nil {
		return fmt.Errorf("echo process: %w", err)
	}
	r.msg = make([]byte, 1024)
	return nil
}

// echoMain is `bench -echo`: it prints a loopback address, accepts one
// connection and returns every 1 KiB it reads until the peer hangs up.
func echoMain() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench -echo: %v\n", err)
		return 1
	}
	fmt.Println(l.Addr().String())
	conn, err := l.Accept()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench -echo: %v\n", err)
		return 1
	}
	buf := make([]byte, 1024)
	for {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return 0
		}
		if _, err := conn.Write(buf); err != nil {
			return 0
		}
	}
}

// close stops the echo process and removes the file.
func (r *reference) close() {
	if r == nil {
		return
	}
	if r.conn != nil {
		r.conn.Close()
	}
	if r.peer != nil {
		r.peer.kill()
	}
	if r.file != nil {
		r.file.Close()
	}
	if r.dir != "" {
		removeScratch(r.dir)
	}
}

// Sizes of one reading: 4 to 6 ms on a quiet box, so the 23 to 29
// readings of a run cost a hundredth of it.
const (
	computeSteps = 400000
	cacheSteps   = 200000
	wakeupTrips  = 50
	fsyncAppends = 2
)

// read takes one reading, keeps it, and returns its index. A failing
// echo process or file is kept in err, which fails the run.
func (r *reference) read() int {
	if r == nil {
		return 0
	}
	fail := func(err error) {
		if r.err == nil {
			r.err = fmt.Errorf("reference work: %w", err)
		}
	}
	var out reading
	t0 := time.Now()
	a, b, c, d := r.sink|1, r.sink|3, r.sink|5, r.sink|7
	for i := 0; i < computeSteps; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = (b ^ (b >> 13)) + 0x9e3779b97f4a7c15
		c = c*3 + (c >> 7)
		d = (d << 5) ^ (d >> 3) ^ uint64(i)
	}
	r.sink += a + b + c + d
	out.compute = float64(time.Since(t0))

	t0 = time.Now()
	j := uint32(0)
	for i := 0; i < cacheSteps; i++ {
		j = r.ring[j]
	}
	r.sink += uint64(j)
	out.cache = float64(time.Since(t0))

	out.wakeup, out.fsync = quiet.wakeup, quiet.fsync
	if r.conn != nil {
		t0 = time.Now()
		for i := 0; i < wakeupTrips; i++ {
			if _, err := r.conn.Write(r.msg); err != nil {
				fail(err)
				break
			}
			if _, err := io.ReadFull(r.conn, r.msg); err != nil {
				fail(err)
				break
			}
		}
		out.wakeup = float64(time.Since(t0))
	}
	if r.file != nil {
		t0 = time.Now()
		for i := 0; i < fsyncAppends; i++ {
			if _, err := r.file.Write(r.block[:]); err != nil {
				fail(err)
				break
			}
			if err := r.file.Sync(); err != nil {
				fail(err)
				break
			}
		}
		out.fsync = float64(time.Since(t0))
	}
	r.readings = append(r.readings, out)
	return len(r.readings) - 1
}

// nearby is how many readings on either side of an interval count
// towards its slowdown, besides the two that bound it.
const nearby = 2

// slowdown is how slow the box was between readings i and j: the
// median slowdown of those two and the nearby ones on either side. One
// reading is 5 ms of a segment of 100 to 400, and a neighbour that
// takes the CPU for just those 5 ms makes it read four to nine times
// slow; a median of six is deaf to that and still follows a phase that
// changes within the run.
func (r *reference) slowdown(i, j int) float64 {
	if r == nil {
		return 1
	}
	lo, hi := max(i-nearby, 0), min(j+nearby+1, len(r.readings))
	s := make([]float64, 0, hi-lo)
	for _, rd := range r.readings[lo:hi] {
		s = append(s, r.mix.slowdown(rd))
	}
	return median(s)
}

// failure is the first error of the echo process or the file.
func (r *reference) failure() error {
	if r == nil {
		return nil
	}
	return r.err
}

// setupClock times one set-up, with a reading at either end.
type setupClock struct {
	ref    *reference
	before int
	start  time.Time
}

// startSetup takes a reading and starts the clock.
func (r *reference) startSetup() setupClock {
	return setupClock{ref: r, before: r.read(), start: time.Now()}
}

// setupTimes collects a run's set-ups.
type setupTimes struct {
	wall          []float64 // seconds
	before, after []int     // the readings around each
}

// stop ends a set-up with a reading and files it.
func (c setupClock) stop(into *setupTimes) {
	into.wall = append(into.wall, time.Since(c.start).Seconds())
	into.before = append(into.before, c.before)
	into.after = append(into.after, c.ref.read())
}

// quiet returns the set-ups in a quiet box's seconds. It is called
// once the run's readings are all taken, those after each set-up too.
func (s *setupTimes) quiet(r *reference) []float64 {
	q := make([]float64, len(s.wall))
	for i, w := range s.wall {
		q[i] = w / r.slowdown(s.before[i], s.after[i])
	}
	return q
}

// timedPhase collects the segments of a timed phase and takes the
// readings between them.
type timedPhase struct {
	ref   *reference
	first int     // the reading before the first segment
	walls []int64 // each segment's length, ns
	marks []int   // latency samples recorded by the end of each segment
}

// startPhase takes the reading before the first segment.
func (r *reference) startPhase() *timedPhase {
	return &timedPhase{ref: r, first: r.read()}
}

// end closes a segment of the given length, by whose end mark latency
// samples exist, with a reading.
func (p *timedPhase) end(wall int64, mark int) {
	p.walls = append(p.walls, wall)
	p.marks = append(p.marks, mark)
	p.ref.read()
}

// quiet returns the phase's length and its latency samples in a quiet
// box's nanoseconds: each segment, and each sample in it, over the
// slowdown between the readings around the segment.
func (p *timedPhase) quiet(latencies samples) (float64, samples) {
	var ns float64
	var out samples
	lo := 0
	for k, wall := range p.walls {
		s := p.ref.slowdown(p.first+k, p.first+k+1)
		ns += float64(wall) / s
		out = out.appendOver(latencies[lo:p.marks[k]], s)
		lo = p.marks[k]
	}
	return ns, out
}

// note describes the readings behind a result: the median cost of each
// piece of reference work.
func (r *reference) note() string {
	if r == nil || len(r.readings) == 0 {
		return "reference: none, times are wall-clock"
	}
	col := func(f func(reading) float64) float64 {
		v := make([]float64, len(r.readings))
		for i, rd := range r.readings {
			v[i] = f(rd)
		}
		return median(v)
	}
	s := fmt.Sprintf("reference (n=%d): compute %.3f ms, cache %.3f ms", len(r.readings),
		col(func(x reading) float64 { return x.compute })/1e6, col(func(x reading) float64 { return x.cache })/1e6)
	if r.conn != nil {
		s += fmt.Sprintf(", wakeup %.3f ms", col(func(x reading) float64 { return x.wakeup })/1e6)
	}
	if r.file != nil {
		s += fmt.Sprintf(", fsync %.3f ms", col(func(x reading) float64 { return x.fsync })/1e6)
	}
	return s
}

// pinToOneCPU re-executes the process bound to the last CPU it may run
// on, so that the workload, the bwd children and the echo process,
// which all inherit the binding, share one CPU with the reference work
// that measures it. The load is one closed-loop caller, so no two of
// them ever want the CPU at once; what two CPUs add is a cross-CPU
// wake-up per message, which on a shared host costs 40 to 110 us
// depending on the host (18 us on one CPU) and is the hypervisor's
// doing, not the controller's. Without the right to set the binding
// the run goes ahead unbound.
func pinToOneCPU() {
	const marker = "BENCH_PINNED"
	if os.Getenv(marker) != "" {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		fmt.Fprintf(os.Stderr, "bench: reading the CPU binding: %v; running unbound\n", errno)
		return
	}
	last := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			last = i
		}
	}
	if last < 0 {
		return
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		fmt.Fprintf(os.Stderr, "bench: binding to CPU %d: %v; running unbound\n", last, errno)
		return
	}
	self, err := os.Executable()
	if err == nil {
		// The new image starts on this thread and inherits its binding.
		err = syscall.Exec(self, os.Args, append(os.Environ(), marker+"=1"))
	}
	fmt.Fprintf(os.Stderr, "bench: re-executing bound to CPU %d: %v; running unbound\n", last, err)
}
