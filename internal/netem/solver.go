package netem

import (
	"fmt"
	"math"
	"sort"
)

// eps is the freeze epsilon: a link is saturated within eps of full, a
// flow capped within eps of its cap. Check allows the same band.
const eps = 1e-9

// The fits test (see Solver): a link provably never saturates when the
// caps crossing it sum to less than capacity·(1−fitsRel) − fitsAbs — the
// margins dataplane's contended test uses — on instances of at most
// fitsMaxOcc (flow, link) occurrences, the degree bound under which the
// margin dominates eps plus the rounding of every sum involved.
const (
	fitsRel    = 1e-9
	fitsAbs    = 1e-6
	fitsMaxOcc = 1 << 20
)

// Solver is the event-driven weighted max-min allocator: progressive
// filling — a water level θ rises, every unfrozen flow transmits w·θ,
// and a flow freezes at its cap or when a link it crosses saturates —
// restructured so each water-level round touches only the links that
// still carry unfrozen flows instead of rescanning every flow×link pair.
//
// Per call it builds a CSR link→flow adjacency once, then maintains per
// touched link the residual capacity left by frozen flows and the
// unfrozen weight, recomputing them only for links whose frozen set
// changed (an O(path) dirty-marking per freeze). Each round is a
// min-tracking pass over the candidate saturation events (one per still
// -active link) plus the per-flow cap events. All state lives in
// reusable scratch buffers, so a Solver kept across calls performs zero
// steady-state allocations.
//
// Its answers pass Check, the linear-time max-min certificate; only
// determinism pins their bits. Every stored value is a fixed expression
// — a link's residual folds its flows in increasing flow index, a rate
// is fl(w·θ) or the cap itself — and the screens and error bounds below
// decide only which links and flows get the exact test, never what it
// computes, so a reused Solver returns what a fresh one does.
//
// When every cap fits, the answer is the caps. While handing out dense
// link ids the solver also sums the caps of the unfrozen flows per link
// (a link listed twice on a path counts twice, as the event loop's fold
// subtracts it twice). If on every touched link that sum stays under
// capacity·(1−fitsRel) − fitsAbs, every unfrozen flow's cap event level
// cap/weight is finite, and the instance has at most fitsMaxOcc (flow,
// link) occurrences, the rates are the caps and the solve returns before
// the CSR build, both sorts and the event loop. Proof that the event
// loop returns exactly that (u = 2⁻⁵³, deg a link's occurrence count):
//
//   - θ never passes the smallest unfrozen cap event, which is one of the
//     candidates of the min that picks the next level. So an unfrozen
//     flow transmits fl(w·θ) ≤ fl(w·fl(cap/w)) ≤ cap·(1+3u) + 2⁻⁵¹ in
//     every round; a flow frozen at its cap holds it exactly.
//   - No link saturates. The exact residual the loop tests with
//     rem ≤ eps (a screen skips a link only when its estimate provably
//     clears eps) subtracts deg terms, each at most its flow's cap up to
//     the rounding above, so it differs from capacity − Σcap by at most
//     (3·deg+8)·u·capacity + deg·2⁻⁵¹, fold error of both sums included.
//     With deg ≤ fitsMaxOcc = 2²⁰ that is below 3.5e-10·capacity + 5e-10,
//     which the margin fitsRel·capacity + fitsAbs exceeds by more than
//     eps: rem > eps on every link in every round.
//   - So a flow can only freeze at its cap event, which assigns
//     rate = cap exactly, and the loop cannot end any other way: with
//     finite cap events the next level is never +Inf. (It does end: by
//     the mediant inequality a link's level rem/Σw, rem ≥ Σcap + margin,
//     lies above the smallest cap event on it by more than the
//     (4·deg+5)·u·capacity its roundings can move it, so each round's
//     level is that event and freezes its flow — unless w·fl(cap/w)
//     rounds below cap − eps, where the loop spins.)
//
// The test is written so that anything else falls through to the event
// loop — the comparison is a strict "sum < bound", false for a NaN or
// +Inf sum (a Greedy flow without a limit), for a NaN, zero or negative
// capacity, and for any link within the margin.
// TestDifferentialFitsShortcut holds the early return to the event loop
// by Float64bits.
//
// The dataplane relies on this proof's conclusion, not on the fits
// test: a component whose links' declared loads all stay these margins
// below capacity is solved there in closed form, without calling the
// solver, as rates = caps. Its proof
// (dataplane.Driver's solveComponent) shows rem > eps in every round
// even in the rounding band where the strict test fails and the event
// loop runs, and needs nothing else from this one. A change to the
// freeze rules, eps or this bound must keep that conclusion.
//
// A Solver is not safe for concurrent use; give each goroutine its own.
// The zero value is ready to use.
type Solver struct {
	// Per-flow scratch, indexed by flow.
	capOf    []float64 // f.cap(), precomputed
	weightOf []float64 // f.weight(), precomputed
	capEvent []float64 // f.cap()/f.weight(): the flow's cap event level
	rates    []float64
	frozen   []bool
	unf      []int32 // indices of currently unfrozen flows

	// Event ordering scratch: flows sorted by cap-event level drive the
	// θ-advance min through a frozen-skipping pointer, and flows sorted
	// by a conservative lower bound of their cap-freeze trigger level
	// feed the per-round candidate set — so no round ever scans every
	// unfrozen flow.
	evKey    []float64 // capEvent with NaN mapped to +Inf (sort key)
	svLow    []float64 // conservative low bound of the cap-freeze trigger level
	evOrder  []int32   // unfrozen flows sorted by evKey
	scrOrder []int32   // unfrozen flows sorted by svLow
	cand     []int32   // live cap-freeze candidates (svLow reached, not yet frozen)
	byKey    idxSorter

	// Per-link sparse scratch, sized to the network; generation-stamped
	// so calls never pay an O(links) clear.
	linkGen []uint64
	denseOf []int32   // link -> dense id, valid when linkGen matches
	capSum  []float64 // link -> Σ cap of its unfrozen flows (the fits test)
	gen     uint64

	// Dense per-touched-link scratch (CSR adjacency and incremental
	// residual state), indexed by dense id in first-touch order.
	lcap       []float64 // capacity
	start      []int32   // CSR offsets: flows on dense link j are flowIdx[start[j]:start[j+1]]
	flowIdx    []int32   // flow indices, increasing per link
	fill       []int32   // CSR construction cursor
	remFrozen  []float64 // capacity minus frozen flows' rates
	weightOn   []float64 // summed weight of unfrozen flows
	tOf        []float64 // cached saturation level Max(remFrozen,0)/weightOn
	satScreen  []float64 // level below which the link provably stays unsaturated
	unfrozenOn []int32   // unfrozen path occurrences on the link
	dirty      []bool    // frozen set changed; remFrozen/weightOn stale
	active     []int32   // dense ids still carrying unfrozen flows
	sat        []int32   // links found saturated this round
}

// idxSorter sorts an index slice by a float key without allocating.
type idxSorter struct {
	idx []int32
	key []float64
}

func (x *idxSorter) Len() int           { return len(x.idx) }
func (x *idxSorter) Less(i, j int) bool { return x.key[x.idx[i]] < x.key[x.idx[j]] }
func (x *idxSorter) Swap(i, j int)      { x.idx[i], x.idx[j] = x.idx[j], x.idx[i] }

// NewSolver returns an empty solver. Buffers grow on first use and are
// reused by subsequent calls.
func NewSolver() *Solver { return &Solver{} }

// MaxMin computes the weighted max-min fair allocation of the flows on
// the network, appending the per-flow rates to dst (pass dst[:0] to
// reuse a buffer) and returning the extended slice. The rates pass
// Check, and a reused Solver returns the bits a fresh one does.
func (s *Solver) MaxMin(n *Network, flows []Flow, dst []float64) ([]float64, error) {
	return s.MaxMinCaps(n.caps, flows, dst)
}

// MaxMinCaps is MaxMin over a raw capacity vector: caps[l] is the
// capacity of LinkID l. Entries not referenced by any flow's path are
// never read, so callers maintaining a scratch capacity vector (the
// enforcement residual network) need only refresh the links they touch.
func (s *Solver) MaxMinCaps(caps []float64, flows []Flow, dst []float64) ([]float64, error) {
	for i, f := range flows {
		for _, l := range f.Path {
			if int(l) < 0 || int(l) >= len(caps) {
				return nil, fmt.Errorf("%w: flow %d references unknown link %d (network has %d)",
					ErrBadInput, i, l, len(caps))
			}
		}
	}
	s.solve(caps, flows, true)
	return append(dst, s.rates[:len(flows)]...), nil
}

// grow resizes the per-flow and per-link scratch for this call.
func (s *Solver) grow(nflows, nlinks int) {
	if cap(s.capOf) < nflows {
		s.capOf = make([]float64, nflows)
		s.weightOf = make([]float64, nflows)
		s.capEvent = make([]float64, nflows)
		s.rates = make([]float64, nflows)
		s.frozen = make([]bool, nflows)
		s.unf = make([]int32, 0, nflows)
	}
	if cap(s.evKey) < nflows {
		s.evKey = make([]float64, nflows)
		s.svLow = make([]float64, nflows)
		s.evOrder = make([]int32, 0, nflows)
		s.scrOrder = make([]int32, 0, nflows)
		s.cand = make([]int32, 0, nflows)
	}
	s.capOf = s.capOf[:nflows]
	s.weightOf = s.weightOf[:nflows]
	s.capEvent = s.capEvent[:nflows]
	s.rates = s.rates[:nflows]
	s.frozen = s.frozen[:nflows]
	s.unf = s.unf[:0]
	s.evKey = s.evKey[:nflows]
	s.svLow = s.svLow[:nflows]
	s.evOrder = s.evOrder[:0]
	s.scrOrder = s.scrOrder[:0]
	s.cand = s.cand[:0]
	if len(s.linkGen) < nlinks {
		s.linkGen = make([]uint64, nlinks)
		s.denseOf = make([]int32, nlinks)
		s.capSum = make([]float64, nlinks)
		s.gen = 0
	}
}

// growDense resizes the dense touched-link scratch to nt links with a
// CSR adjacency of total size entries.
func (s *Solver) growDense(nt, total int) {
	if cap(s.lcap) < nt {
		s.lcap = make([]float64, nt)
		s.start = make([]int32, nt+1)
		s.fill = make([]int32, nt)
		s.remFrozen = make([]float64, nt)
		s.weightOn = make([]float64, nt)
		s.tOf = make([]float64, nt)
		s.satScreen = make([]float64, nt)
		s.unfrozenOn = make([]int32, nt)
		s.dirty = make([]bool, nt)
		s.active = make([]int32, 0, nt)
		s.sat = make([]int32, 0, nt)
	}
	s.lcap = s.lcap[:nt]
	s.start = s.start[:nt+1]
	s.fill = s.fill[:nt]
	clear(s.fill)
	s.remFrozen = s.remFrozen[:nt]
	s.weightOn = s.weightOn[:nt]
	s.tOf = s.tOf[:nt]
	s.satScreen = s.satScreen[:nt]
	s.unfrozenOn = s.unfrozenOn[:nt]
	s.dirty = s.dirty[:nt]
	s.active = s.active[:0]
	if cap(s.flowIdx) < total {
		s.flowIdx = make([]int32, total)
	}
	s.flowIdx = s.flowIdx[:total]
}

// solve runs the event-driven progressive filling. Inputs are
// pre-validated; results land in s.rates. With shortcut set, an
// instance whose caps all fit returns them before the event loop (see
// Solver): MaxMinCaps always sets it; the tests clear it to hold that
// return to the loop and to certify the loop alone.
func (s *Solver) solve(caps []float64, flows []Flow, shortcut bool) {
	s.grow(len(flows), len(caps))

	// Initial freeze pass: flows with no positive cap or no path never
	// transmit (a pathless unbounded flow is undefined and sends nothing).
	active := 0
	fits := true
	for i, f := range flows {
		s.capOf[i] = f.cap()
		s.weightOf[i] = f.weight()
		s.rates[i] = 0
		if s.capOf[i] <= 0 || len(f.Path) == 0 {
			s.frozen[i] = true
			s.rates[i] = math.Max(s.capOf[i], 0)
			if len(f.Path) == 0 && math.IsInf(s.capOf[i], 1) {
				s.rates[i] = 0
			}
			continue
		}
		s.frozen[i] = false
		s.capEvent[i] = s.capOf[i] / s.weightOf[i]
		if !(s.capEvent[i] <= math.MaxFloat64) {
			fits = false
		}
		s.unf = append(s.unf, int32(i))
		active++
	}
	if active == 0 {
		return
	}

	// Touched links, dense ids in first-touch order. Pre-frozen flows
	// are excluded: their rate is exactly 0, and subtracting 0 leaves
	// every residual bit-identical. The same pass runs the fits test
	// (see Solver): caps are positive, so a partial sum that does not fit
	// settles it and the summing stops there.
	s.gen++
	nt := 0
	total := 0
	for _, fi := range s.unf {
		for _, l := range flows[fi].Path {
			if s.linkGen[l] != s.gen {
				s.linkGen[l] = s.gen
				s.denseOf[l] = int32(nt)
				s.capSum[l] = 0
				nt++
			}
			total++
			if fits {
				s.capSum[l] += s.capOf[fi]
				fits = s.capSum[l] < caps[l]*(1-fitsRel)-fitsAbs
			}
		}
	}
	if shortcut && fits && total <= fitsMaxOcc {
		for _, fi := range s.unf {
			s.rates[fi] = s.capOf[fi]
		}
		return
	}
	s.growDense(nt, total)

	// CSR adjacency: per-link flow lists in increasing flow index, the
	// order every residual fold runs in. A link appearing twice on one
	// path is listed twice: the flow loads it twice.
	for _, fi := range s.unf {
		for _, l := range flows[fi].Path {
			s.fill[s.denseOf[l]]++
		}
	}
	off := int32(0)
	for j := 0; j < nt; j++ {
		s.start[j] = off
		off += s.fill[j]
		s.fill[j] = s.start[j]
	}
	s.start[nt] = off
	for _, fi := range s.unf {
		for _, l := range flows[fi].Path {
			j := s.denseOf[l]
			s.flowIdx[s.fill[j]] = fi
			s.fill[j]++
		}
	}
	for j := 0; j < nt; j++ {
		s.unfrozenOn[j] = s.start[j+1] - s.start[j]
		s.dirty[j] = true
		s.active = append(s.active, int32(j))
	}
	for _, fi := range s.unf {
		for _, l := range flows[fi].Path {
			s.lcap[s.denseOf[l]] = caps[l]
		}
	}

	// Event orders. evOrder (ascending cap-event level, NaN last) drives
	// the θ-advance min through a frozen-skipping pointer: the first
	// unfrozen entry IS the minimum unfrozen cap event, because every
	// entry before the pointer is frozen. scrOrder sorts by svLow, a
	// conservative lower bound on the level at which the cap check
	// fl(w·θ) >= cap−eps can first fire: the trigger level is at
	// least ((cap−eps)/w)·(1−3u), so subtracting 1e-12 relative + 1e-12
	// absolute (thousands of times the FP error) guarantees no trigger
	// fires below svLow. Flows whose svLow the water level has passed
	// become candidates and get the exact cap check each round
	// until they freeze — no round scans the full unfrozen set.
	for _, fi := range s.unf {
		k := s.capEvent[fi]
		if math.IsNaN(k) {
			k = math.Inf(1) // sort NaN last; it never drives an event
		}
		s.evKey[fi] = k
		sv := (s.capOf[fi] - eps) / s.weightOf[fi]
		sv -= 1e-12*math.Abs(sv) + 1e-12
		if math.IsNaN(sv) {
			sv = math.Inf(-1) // always a candidate; the exact check decides
		}
		s.svLow[fi] = sv
		s.evOrder = append(s.evOrder, fi)
		s.scrOrder = append(s.scrOrder, fi)
	}
	s.byKey.idx, s.byKey.key = s.evOrder, s.evKey
	sort.Sort(&s.byKey)
	s.byKey.idx, s.byKey.key = s.scrOrder, s.svLow
	sort.Sort(&s.byKey)

	theta := 0.0
	advanced := false
	p, q := 0, 0
	for active > 0 {
		// Next event: the minimum over per-link saturation levels and
		// the smallest unfrozen cap event — a pure min, so order is free.
		next := math.Inf(1)
		na := 0
		for _, j := range s.active {
			if s.unfrozenOn[j] == 0 {
				continue // fully frozen; drop from the active set
			}
			s.active[na] = j
			na++
			if s.dirty[j] {
				rem := s.lcap[j]
				w := 0.0
				for _, fi := range s.flowIdx[s.start[j]:s.start[j+1]] {
					if s.frozen[fi] {
						rem -= s.rates[fi]
					} else {
						w += s.weightOf[fi]
					}
				}
				s.remFrozen[j] = rem
				s.weightOn[j] = w
				s.tOf[j] = math.Max(rem, 0) / w
				// The level below which est−margin > eps is guaranteed
				// (see the saturation pass): rem − θw − m(|cap| + θw) > eps
				// ⟺ θ < (rem − m|cap| − eps)/(w(1+m)), rounded down a
				// further 1e-12 so the screen's own roundings can only
				// make it more conservative. Negative or NaN screens
				// simply never skip.
				m := 1e-14 * float64(s.start[j+1]-s.start[j]+8)
				s.satScreen[j] = (1 - 1e-12) * (rem - m*math.Abs(s.lcap[j]) - eps) / (w * (1 + m))
				s.dirty[j] = false
			}
			t := s.tOf[j]
			if t < theta {
				t = theta
			}
			if t < next {
				next = t
			}
		}
		s.active = s.active[:na]
		for q < len(s.evOrder) && s.frozen[s.evOrder[q]] {
			q++
		}
		if q < len(s.evOrder) {
			if t := s.capEvent[s.evOrder[q]]; t < next {
				next = t
			}
		}
		if math.IsInf(next, 1) {
			break // defensive: nothing constrains the remaining flows
		}

		// Advance the water level. Unfrozen rates are a pure function of
		// it (fl(w·θ)), so they are materialized lazily — at freeze time,
		// inside near-saturation residual sums, and once after the loop —
		// instead of rewritten every round.
		theta = next
		advanced = true

		// Saturation detection at the new level. The residual is read
		// only as the `<= eps` predicate, so the exact per-link sum (all
		// flows in flow index order) is needed only near saturation. The
		// estimate
		// remFrozen − θ·w evaluates the same real quantity with a
		// different rounding; the two computed values differ by at most
		// ~(2·deg+4)·u·(cap + θ·w) (u = 2⁻⁵², standard fold-summation
		// bounds; all rates are non-negative, so every partial sum is
		// bounded by the capacity). Links whose estimate clears eps by a
		// 40×-slack margin are provably unsaturated — the precomputed
		// satScreen level encodes that test as one comparison — and only
		// the rest pay the bit-exact recompute that decides the
		// predicate. NaN or infinite operands fail every screen and fall
		// through to the exact sum.
		s.sat = s.sat[:0]
		for _, j := range s.active {
			if theta < s.satScreen[j] {
				continue
			}
			wth := theta * s.weightOn[j]
			est := s.remFrozen[j] - wth
			deg := s.start[j+1] - s.start[j]
			margin := 1e-14 * float64(deg+8) * (math.Abs(s.lcap[j]) + wth)
			if est-margin > eps {
				continue
			}
			rem := s.lcap[j]
			for _, fi := range s.flowIdx[s.start[j]:s.start[j+1]] {
				if s.frozen[fi] {
					rem -= s.rates[fi]
				} else {
					rem -= s.weightOf[fi] * theta
				}
			}
			if rem <= eps {
				s.sat = append(s.sat, j)
			}
		}

		// Cap freezes: admit flows whose screen level the water passed,
		// then run the exact cap check on the candidates. Flows
		// at their cap snap to it.
		for p < len(s.scrOrder) && s.svLow[s.scrOrder[p]] <= theta {
			s.cand = append(s.cand, s.scrOrder[p])
			p++
		}
		nc := 0
		for _, fi := range s.cand {
			if s.frozen[fi] {
				continue
			}
			if s.weightOf[fi]*theta >= s.capOf[fi]-eps {
				s.rates[fi] = s.capOf[fi]
				s.freeze(fi, flows[fi].Path)
				active--
				continue
			}
			s.cand[nc] = fi
			nc++
		}
		s.cand = s.cand[:nc]

		// Saturation freezes, inverted to run over links: every unfrozen
		// flow crossing a saturated link holds its current level. The
		// per-flow decisions are independent of each other (the cap check
		// above used fl(w·θ), not the frozen flags), so freezing by link
		// instead of in flow order cannot change any outcome; a flow both
		// at its cap and on a saturated link already froze above, at its
		// cap.
		for _, j := range s.sat {
			for _, fi := range s.flowIdx[s.start[j]:s.start[j+1]] {
				if s.frozen[fi] {
					continue
				}
				s.rates[fi] = s.weightOf[fi] * theta
				s.freeze(fi, flows[fi].Path)
				active--
			}
		}
	}
	// Materialize the rates of flows the loop never froze (it broke with
	// nothing constraining them) at the final level, fl(w·θ) like every
	// rising rate.
	if advanced {
		for _, fi := range s.unf {
			if !s.frozen[fi] {
				s.rates[fi] = s.weightOf[fi] * theta
			}
		}
	}
}

// freeze marks a flow frozen and dirties its links: their frozen
// residual and unfrozen weight are recomputed lazily next round — the
// O(path) incremental update that replaces rescanning every link.
func (s *Solver) freeze(fi int32, path []LinkID) {
	s.frozen[fi] = true
	for _, l := range path {
		j := s.denseOf[l]
		s.unfrozenOn[j]--
		s.dirty[j] = true
	}
}
