package tag

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Wire is the JSON wire form of a Graph. Edges reference tiers by name and
// self-loops use the single "sr" guarantee, matching the paper's notation.
//
// A request that carries a TAG inside a larger body reads the TAG into a
// Wire field — with Scanner.Wire in the same pass as the rest of the
// body, or with encoding/json when the scanner declines — and calls
// Graph once.
type Wire struct {
	Name  string     `json:"name"`
	Tiers []WireTier `json:"tiers"`
	Edges []WireEdge `json:"edges"`
}

// WireTier is one tier of a Wire.
type WireTier struct {
	Name     string `json:"name"`
	N        int    `json:"n,omitempty"`
	External bool   `json:"external,omitempty"`
}

// WireEdge is one edge of a Wire, naming its endpoint tiers. A self-loop
// carries its guarantee as SR (S when SR is zero).
type WireEdge struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	S    float64 `json:"s,omitempty"`
	R    float64 `json:"r,omitempty"`
	SR   float64 `json:"sr,omitempty"`
}

// linearTiers is the tier count up to which Graph resolves tier names by
// scanning the tiers it has built instead of building a map: every
// workload TAG is under it, and scanning a handful of short names costs
// less than allocating and filling a map per request. Past it a map
// keeps a body of thousands of tiers linear-time.
const linearTiers = 16

// Graph resolves the wire form's tier names into a validated Graph.
func (w *Wire) Graph() (*Graph, error) {
	g := &Graph{Name: w.Name}
	if len(w.Tiers) > 0 {
		g.tiers = make([]Tier, 0, len(w.Tiers))
	}
	if len(w.Edges) > 0 {
		g.edges = make([]Edge, 0, len(w.Edges))
	}
	var idx map[string]int
	if len(w.Tiers) > linearTiers {
		idx = make(map[string]int, len(w.Tiers))
	}
	find := func(name string) (int, bool) {
		if idx != nil {
			i, ok := idx[name]
			return i, ok
		}
		i := g.TierIndex(name)
		return i, i >= 0
	}
	for _, t := range w.Tiers {
		if _, dup := find(t.Name); dup {
			return nil, fmt.Errorf("tag: duplicate tier %q", t.Name)
		}
		if idx != nil {
			idx[t.Name] = len(g.tiers)
		}
		g.tiers = append(g.tiers, Tier{Name: t.Name, N: t.N, External: t.External})
	}
	for _, e := range w.Edges {
		u, ok := find(e.From)
		if !ok {
			return nil, fmt.Errorf("tag: edge references unknown tier %q", e.From)
		}
		v, ok := find(e.To)
		if !ok {
			return nil, fmt.Errorf("tag: edge references unknown tier %q", e.To)
		}
		if u == v {
			sr := e.SR
			if sr == 0 {
				sr = e.S
			}
			g.edges = append(g.edges, Edge{From: u, To: v, S: sr, R: sr})
		} else {
			g.edges = append(g.edges, Edge{From: u, To: v, S: e.S, R: e.R})
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MarshalJSON encodes the graph in the documented wire form.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return g.AppendJSON(make([]byte, 0, 32+40*len(g.tiers)+64*len(g.edges)))
}

// AppendJSON appends the graph's wire form to dst: byte for byte what
// json.Marshal gives the graph's Wire — omitempty dropping zero sizes,
// false flags and zero (or −0) rates, encoding/json's float and
// HTML-safe string formats, null for no tiers or no edges — written
// without reflection. A non-finite rate, which JSON cannot carry,
// returns the error json.Marshal gives it and dst unchanged.
func (g *Graph) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, g.Name)
	dst = append(dst, `,"tiers":`...)
	if len(g.tiers) == 0 {
		dst = append(dst, "null"...)
	}
	for i, t := range g.tiers {
		dst = append(dst, "[,"[min(i, 1)], '{')
		dst = append(dst, `"name":`...)
		dst = appendString(dst, t.Name)
		if t.N != 0 {
			dst = append(dst, `,"n":`...)
			dst = strconv.AppendInt(dst, int64(t.N), 10)
		}
		if t.External {
			dst = append(dst, `,"external":true`...)
		}
		dst = append(dst, '}')
	}
	if len(g.tiers) > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if len(g.edges) == 0 {
		dst = append(dst, "null"...)
	}
	for i, e := range g.edges {
		dst = append(dst, "[,"[min(i, 1)], '{')
		dst = append(dst, `"from":`...)
		dst = appendString(dst, g.tiers[e.From].Name)
		dst = append(dst, `,"to":`...)
		dst = appendString(dst, g.tiers[e.To].Name)
		var err error
		if e.SelfLoop() {
			dst, err = appendRate(dst, `,"sr":`, e.S)
		} else if dst, err = appendRate(dst, `,"s":`, e.S); err == nil {
			dst, err = appendRate(dst, `,"r":`, e.R)
		}
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, '}')
	}
	if len(g.edges) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendString appends s as encoding/json quotes it. A name of
// printable ASCII with nothing to escape — every workload's — is
// copied between quotes; anything else is json.Marshal's.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendRate appends an omitempty float field, key included, in
// encoding/json's format: 'f', or 'e' with a one-digit negative
// exponent unpadded where |v| < 1e-6 or ≥ 1e21. A value JSON cannot
// carry returns the error json.Marshal gives it.
func appendRate(dst []byte, key string, v float64) ([]byte, error) {
	if v == 0 {
		return dst, nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		_, err := json.Marshal(v)
		return dst, err
	}
	dst = append(dst, key...)
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// UnmarshalJSON decodes the documented wire form and validates the
// result. Input in the Scanner's canonical subset is read in one pass;
// anything else goes to encoding/json, so both read it the same.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w Wire
	s := NewScanner(data)
	if s.Wire(&w); !s.End() {
		w = Wire{}
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
	}
	ng, err := w.Graph()
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// Wire reads a TAG in its wire form into w, which must be zero.
func (s *Scanner) Wire(w *Wire) {
	var seen uint32
	for more := s.Object(); more; more = s.More() {
		switch string(s.Key()) {
		case "name":
			w.Name = string(s.raw())
		case "tiers":
			s.Seen(&seen, 1)
			w.Tiers = s.tiers()
		case "edges":
			s.Seen(&seen, 2)
			w.Edges = s.edges(w.Tiers)
		default:
			s.Decline()
		}
	}
}

// tiers reads a Wire's tier array. Up to linearTiers tiers are gathered
// on the stack and copied out once.
func (s *Scanner) tiers() []WireTier {
	if !s.array() {
		return []WireTier{}
	}
	var buf [linearTiers]WireTier
	ts := buf[:0]
	for more := true; more; more = s.next() {
		var t WireTier
		for m := s.Object(); m; m = s.More() {
			switch string(s.Key()) {
			case "name":
				t.Name = string(s.raw())
			case "n":
				t.N = s.Int()
			case "external":
				t.External = s.Bool()
			default:
				s.Decline()
			}
		}
		ts = append(ts, t)
	}
	return append(make([]WireTier, 0, len(ts)), ts...)
}

// edges reads a Wire's edge array, reusing the names of tiers (those
// read so far) for the endpoints that match them.
func (s *Scanner) edges(tiers []WireTier) []WireEdge {
	if !s.array() {
		return []WireEdge{}
	}
	var buf [linearTiers]WireEdge
	es := buf[:0]
	for more := true; more; more = s.next() {
		var e WireEdge
		for m := s.Object(); m; m = s.More() {
			switch string(s.Key()) {
			case "from":
				e.From = s.tierName(tiers)
			case "to":
				e.To = s.tierName(tiers)
			case "s":
				e.S = s.Float()
			case "r":
				e.R = s.Float()
			case "sr":
				e.SR = s.Float()
			default:
				s.Decline()
			}
		}
		es = append(es, e)
	}
	return append(make([]WireEdge, 0, len(es)), es...)
}

// tierName reads a string, returning the name of the tier it equals
// when there is one among a handful (past linearTiers the scan would
// cost more than the copy it saves).
func (s *Scanner) tierName(tiers []WireTier) string {
	b := s.raw()
	if len(tiers) <= linearTiers {
		for i := range tiers {
			if tiers[i].Name == string(b) {
				return tiers[i].Name
			}
		}
	}
	return string(b)
}
