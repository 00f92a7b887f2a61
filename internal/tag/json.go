package tag

import (
	"encoding/json"
	"fmt"
)

// Wire is the JSON wire form of a Graph. Edges reference tiers by name and
// self-loops use the single "sr" guarantee, matching the paper's notation.
//
// A request that carries a TAG inside a larger body decodes the TAG into
// a Wire field and calls Graph once: encoding/json then scans the TAG's
// bytes a single time, where a *Graph field would hand them, raw, to
// Graph.UnmarshalJSON for a second scan.
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
	w := Wire{Name: g.Name}
	for _, t := range g.tiers {
		w.Tiers = append(w.Tiers, WireTier{Name: t.Name, N: t.N, External: t.External})
	}
	for _, e := range g.edges {
		we := WireEdge{From: g.tiers[e.From].Name, To: g.tiers[e.To].Name}
		if e.SelfLoop() {
			we.SR = e.S
		} else {
			we.S, we.R = e.S, e.R
		}
		w.Edges = append(w.Edges, we)
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the documented wire form and validates the result.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w Wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	ng, err := w.Graph()
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}
