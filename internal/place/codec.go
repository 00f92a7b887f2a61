package place

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Binary codec for Event: the payload format of the write-ahead Grant
// log. The encoding is deterministic — map-backed fields (placements)
// are emitted in node-ID order, floats as their IEEE-754 bits, and the
// tenant's TAG as the JSON tag.Graph.AppendJSON writes (json.Marshal's
// bytes for its wire form, whose float64s round-trip exactly) — so
// equal events have equal encodings and a replayed event reproduces the
// original bit-for-bit. All integers are little-endian
// fixed width. Decoding is defensive: truncated or garbled payloads
// return errors, never panic, so log recovery can stop cleanly at the
// last valid record.

// eventCodecVersion is the first payload byte; bump it when the layout
// changes so replay of a foreign ledger fails loudly instead of
// misparsing.
const eventCodecVersion = 1

// EncodeEvent serializes the event into the write-ahead-log payload
// form. The inverse is DecodeEvent.
func EncodeEvent(ev Event) ([]byte, error) {
	w := &codecWriter{}
	w.u8(eventCodecVersion)
	w.u8(uint8(ev.Kind))
	w.i64(int64(ev.Shard))
	w.i64(int64(ev.First))
	w.i64(ev.Key)
	w.i64(ev.ID)
	w.f64(ev.Demand)
	w.f64(ev.HA.RWCS)
	w.i64(int64(ev.HA.LAA))
	w.bool(ev.HA.Opportunistic)
	w.bytes([]byte(ev.Reason))
	// The graph's JSON is appended in place, after a length patched in
	// once it is known.
	at := len(w.buf)
	w.u32(0)
	if ev.Graph != nil {
		var err error
		if w.buf, err = ev.Graph.AppendJSON(w.buf); err != nil {
			return nil, fmt.Errorf("place: encoding event graph: %w", err)
		}
		binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	}
	encodePlacement(w, ev.Placement)
	encodeResources(w, ev.Resources)
	encodeDelta(w, ev.Delta)
	return w.buf, nil
}

// DecodeEvent parses a payload produced by EncodeEvent. Truncated or
// corrupted payloads fail with an error.
func DecodeEvent(b []byte) (Event, error) {
	r := &codecReader{buf: b}
	if v := r.u8(); r.err == nil && v != eventCodecVersion {
		return Event{}, fmt.Errorf("place: event codec version %d, want %d", v, eventCodecVersion)
	}
	var ev Event
	ev.Kind = EventKind(r.u8())
	ev.Shard = int(r.i64())
	ev.First = int(r.i64())
	ev.Key = r.i64()
	ev.ID = r.i64()
	ev.Demand = r.f64()
	ev.HA.RWCS = r.f64()
	ev.HA.LAA = int(r.i64())
	ev.HA.Opportunistic = r.bool()
	ev.Reason = Reason(r.bytes())
	graphJSON := r.bytes()
	ev.Placement = decodePlacement(r)
	ev.Resources = decodeResources(r)
	ev.Delta = decodeDelta(r)
	if r.err != nil {
		return Event{}, fmt.Errorf("place: decoding event: %w", r.err)
	}
	if r.off != len(r.buf) {
		return Event{}, fmt.Errorf("place: decoding event: %d trailing bytes", len(r.buf)-r.off)
	}
	if len(graphJSON) > 0 {
		g := new(tag.Graph) // UnmarshalJSON validates the bytes itself
		if err := g.UnmarshalJSON(graphJSON); err != nil {
			return Event{}, fmt.Errorf("place: decoding event graph: %w", err)
		}
		ev.Graph = g
	}
	switch ev.Kind {
	case EventAdmitted, EventResized, EventReleased, EventRejected, EventFailed:
	default:
		return Event{}, fmt.Errorf("place: decoding event: unknown kind %d", uint8(ev.Kind))
	}
	return ev, nil
}

// encodePlacement emits the placement sorted by server ID: a count of
// servers, then per server its ID and per-tier VM counts.
func encodePlacement(w *codecWriter, pl Placement) {
	servers := make([]topology.NodeID, 0, len(pl))
	for s := range pl {
		servers = append(servers, s)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	w.u32(uint32(len(servers)))
	for _, s := range servers {
		w.i64(int64(s))
		counts := pl[s]
		w.u32(uint32(len(counts)))
		for _, k := range counts {
			w.i64(int64(k))
		}
	}
}

func decodePlacement(r *codecReader) Placement {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if !r.fits(n) {
		return nil
	}
	pl := make(Placement, n)
	for i := 0; i < n; i++ {
		s := topology.NodeID(r.i64())
		tiers := int(r.u32())
		if r.err != nil || !r.fits(tiers) {
			return nil
		}
		counts := make([]int, tiers)
		for t := range counts {
			counts[t] = int(r.i64())
		}
		pl[s] = counts
	}
	return pl
}

// encodeResources emits the per-tier per-VM demand vectors; a zero tier
// count means nil (slot-only tenant).
func encodeResources(w *codecWriter, res [][]float64) {
	w.u32(uint32(len(res)))
	for _, dims := range res {
		w.u32(uint32(len(dims)))
		for _, v := range dims {
			w.f64(v)
		}
	}
}

func decodeResources(r *codecReader) [][]float64 {
	n := int(r.u32())
	if r.err != nil || n == 0 || !r.fits(n) {
		return nil
	}
	res := make([][]float64, n)
	for t := range res {
		dims := int(r.u32())
		if r.err != nil || !r.fits(dims) {
			return nil
		}
		res[t] = make([]float64, dims)
		for d := range res[t] {
			res[t][d] = r.f64()
		}
	}
	return res
}

// encodeDelta emits the canonical footprint: slot, link, and resource
// entries in their (already sorted) order.
func encodeDelta(w *codecWriter, d topology.Delta) {
	w.u32(uint32(len(d.Slots)))
	for _, s := range d.Slots {
		w.i64(int64(s.Server))
		w.i64(int64(s.N))
	}
	w.u32(uint32(len(d.Links)))
	for _, l := range d.Links {
		w.i64(int64(l.Node))
		w.f64(l.Out)
		w.f64(l.In)
	}
	w.u32(uint32(len(d.Resources)))
	for _, rd := range d.Resources {
		w.i64(int64(rd.Server))
		w.u32(uint32(len(rd.Demand)))
		for _, v := range rd.Demand {
			w.f64(v)
		}
	}
}

func decodeDelta(r *codecReader) topology.Delta {
	var d topology.Delta
	n := int(r.u32())
	if r.err != nil || !r.fits(n) {
		return d
	}
	if n > 0 {
		d.Slots = make([]topology.SlotDelta, n)
		for i := range d.Slots {
			d.Slots[i] = topology.SlotDelta{Server: topology.NodeID(r.i64()), N: int(r.i64())}
		}
	}
	n = int(r.u32())
	if r.err != nil || !r.fits(n) {
		return topology.Delta{}
	}
	if n > 0 {
		d.Links = make([]topology.LinkDelta, n)
		for i := range d.Links {
			d.Links[i] = topology.LinkDelta{Node: topology.NodeID(r.i64()), Out: r.f64(), In: r.f64()}
		}
	}
	n = int(r.u32())
	if r.err != nil || !r.fits(n) {
		return topology.Delta{}
	}
	if n > 0 {
		d.Resources = make([]topology.ResourceDelta, n)
		for i := range d.Resources {
			server := topology.NodeID(r.i64())
			dims := int(r.u32())
			if r.err != nil || !r.fits(dims) {
				return topology.Delta{}
			}
			dem := make([]float64, dims)
			for j := range dem {
				dem[j] = r.f64()
			}
			d.Resources[i] = topology.ResourceDelta{Server: server, Demand: dem}
		}
	}
	return d
}

// codecWriter accumulates the little-endian payload.
type codecWriter struct{ buf []byte }

func (w *codecWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *codecWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *codecWriter) i64(v int64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *codecWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *codecWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *codecWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// codecReader tracks a parse offset and latches the first error, so
// decode paths read linearly without per-field error plumbing.
type codecReader struct {
	buf []byte
	off int
	err error
}

// fits reports whether at least n more *encoded elements* could remain
// (one byte each at minimum), bounding allocations against garbled
// counts before element-by-element reads fail.
func (r *codecReader) fits(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("count %d exceeds %d remaining bytes", n, len(r.buf)-r.off)
		return false
	}
	return true
}

func (r *codecReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.err = fmt.Errorf("truncated at offset %d: need %d bytes, have %d", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *codecReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *codecReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *codecReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *codecReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *codecReader) bool() bool { return r.u8() != 0 }

func (r *codecReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	return r.take(n)
}
