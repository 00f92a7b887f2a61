package tag

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// threeTier builds the Fig. 2(a) application: web, logic, db tiers of n
// VMs each, bidirectional trunks web<->logic (B1) and logic<->db (B2), and
// a db self-loop (B3).
func threeTier(n int, b1, b2, b3 float64) *Graph {
	g := New("three-tier")
	web := g.AddTier("web", n)
	logic := g.AddTier("logic", n)
	db := g.AddTier("db", n)
	g.AddBidirectional(web, logic, b1, b1)
	g.AddBidirectional(logic, db, b2, b2)
	g.AddSelfLoop(db, b3)
	return g
}

func TestValidate(t *testing.T) {
	g := threeTier(4, 500, 100, 50)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	bad := New("empty")
	if err := bad.Validate(); err == nil {
		t.Error("empty graph accepted")
	}

	bad = New("dup")
	bad.AddTier("a", 1)
	bad.AddTier("a", 1)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate tier name accepted: %v", err)
	}

	bad = New("zero")
	bad.AddTier("a", 0)
	if err := bad.Validate(); err == nil {
		t.Error("zero-size non-external tier accepted")
	}

	bad = New("neg")
	bad.AddTier("a", 2)
	bad.AddEdge(0, 0, 5, 5)
	bad.edges[0].R = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative guarantee accepted")
	}

	bad = New("extloop")
	e := bad.AddExternal("inet", 0)
	bad.AddSelfLoop(e, 1)
	if err := bad.Validate(); err == nil {
		t.Error("self-loop on external tier accepted")
	}

	bad = New("range")
	bad.AddTier("a", 1)
	bad.edges = append(bad.edges, Edge{From: 0, To: 3, S: 1, R: 1})
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddEdge(u,u) with S != R did not panic")
		}
	}()
	g := New("x")
	a := g.AddTier("a", 2)
	g.AddEdge(a, a, 1, 2)
}

func TestSizesAndVMs(t *testing.T) {
	g := threeTier(5, 1, 1, 1)
	g.AddExternal("inet", 0)
	if got := g.VMs(); got != 15 {
		t.Errorf("VMs = %d, want 15", got)
	}
	want := []int{5, 5, 5, 0}
	got := g.Sizes()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sizes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if g.TierIndex("logic") != 1 || g.TierIndex("nope") != -1 {
		t.Error("TierIndex lookup wrong")
	}
}

func TestEdgeAggregate(t *testing.T) {
	g := New("agg")
	u := g.AddTier("u", 10) // 10 VMs sending at 30
	v := g.AddTier("v", 5)  // 5 VMs receiving at 40
	g.AddEdge(u, v, 30, 40)
	// B(u->v) = min(30*10, 40*5) = min(300, 200) = 200.
	if got := g.EdgeAggregate(g.Edges()[0]); got != 200 {
		t.Errorf("EdgeAggregate = %g, want 200", got)
	}

	g.AddSelfLoop(v, 60)
	// Self-loop aggregate = SR*N/2 = 60*5/2 = 150.
	if got := g.EdgeAggregate(g.Edges()[1]); got != 150 {
		t.Errorf("self-loop aggregate = %g, want 150", got)
	}
	if got := g.AggregateBandwidth(); got != 350 {
		t.Errorf("AggregateBandwidth = %g, want 350", got)
	}
}

func TestEdgeAggregateUnboundedExternal(t *testing.T) {
	g := New("ext")
	u := g.AddTier("u", 4)
	inet := g.AddExternal("inet", 0)
	g.AddEdge(u, inet, 25, 25)
	// Unbounded receiver: aggregate = S*Nu = 100.
	if got := g.EdgeAggregate(g.Edges()[0]); got != 100 {
		t.Errorf("EdgeAggregate toward unbounded external = %g, want 100", got)
	}
	// AggregateBandwidth must not be polluted by Inf.
	if got := g.AggregateBandwidth(); math.IsInf(got, 1) || got != 100 {
		t.Errorf("AggregateBandwidth = %g, want 100", got)
	}
}

func TestVMProfile(t *testing.T) {
	// Fig 2(b): hose guarantees derived from the TAG. web: B1, logic:
	// B1+B2, db: B2+B3 in each direction.
	g := threeTier(4, 500, 100, 50)
	cases := []struct {
		tier string
		out  float64
		in   float64
	}{
		{"web", 500, 500},
		{"logic", 600, 600},
		{"db", 150, 150},
	}
	for _, c := range cases {
		out, in := g.VMProfile(g.TierIndex(c.tier))
		if out != c.out || in != c.in {
			t.Errorf("VMProfile(%s) = (%g,%g), want (%g,%g)", c.tier, out, in, c.out, c.in)
		}
	}
}

func TestPerVMDemand(t *testing.T) {
	g := threeTier(4, 500, 100, 50)
	// Mean of (out+in)/2 across 12 VMs: (4*500 + 4*600 + 4*150)/12.
	want := (4*500.0 + 4*600 + 4*150) / 12
	if got := g.PerVMDemand(); math.Abs(got-want) > 1e-9 {
		t.Errorf("PerVMDemand = %g, want %g", got, want)
	}
}

func TestScaleAndClone(t *testing.T) {
	g := threeTier(4, 500, 100, 50)
	c := g.Clone()
	g.Scale(2)
	if g.Edges()[0].S != 1000 {
		t.Errorf("Scale did not double S: %g", g.Edges()[0].S)
	}
	if c.Edges()[0].S != 500 {
		t.Errorf("Clone shares edge storage with original")
	}
	c.AddTier("extra", 1)
	if g.Tiers() != 3 {
		t.Errorf("Clone shares tier storage with original")
	}
}

func TestStringRendering(t *testing.T) {
	g := New("s")
	a := g.AddTier("a", 2)
	b := g.AddExternal("inet", 0)
	g.AddEdge(a, b, 10, 10)
	g.AddSelfLoop(a, 5)
	s := g.String()
	for _, want := range []string{`TAG "s"`, "a[2]", "inet*[0]", "a-<10,10>->inet", "a loop 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := threeTier(4, 500, 100, 50)
	g.AddExternal("inet", 0)
	g.AddEdge(g.TierIndex("web"), g.TierIndex("inet"), 10, 10)

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Name != g.Name || back.Tiers() != g.Tiers() || len(back.Edges()) != len(g.Edges()) {
		t.Fatalf("round trip changed shape: %s vs %s", back.String(), g.String())
	}
	for i, e := range g.Edges() {
		if back.Edges()[i] != e {
			t.Errorf("edge %d: got %+v want %+v", i, back.Edges()[i], e)
		}
	}
}

func TestJSONErrors(t *testing.T) {
	cases := []string{
		`{"name":"x","tiers":[{"name":"a","n":1}],"edges":[{"from":"a","to":"zzz","s":1,"r":1}]}`,
		`{"name":"x","tiers":[{"name":"a","n":1},{"name":"a","n":2}]}`,
		`{"name":"x","tiers":[{"name":"a","n":0}]}`,
		`not json`,
	}
	for _, c := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("unmarshal accepted invalid input %q", c)
		}
	}
}

// TestWireGraphNameLookup resolves tier names on both sides of
// linearTiers — the scan over built tiers and the map past it — with
// the same results and the same messages.
func TestWireGraphNameLookup(t *testing.T) {
	for _, n := range []int{2, linearTiers, linearTiers + 1, 3 * linearTiers} {
		g := New("ring")
		for i := 0; i < n; i++ {
			g.AddTier(fmt.Sprintf("t%d", i), i+1)
		}
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, 2, 3)
			g.AddSelfLoop(i, 1)
		}
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var w Wire
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		back, err := w.Graph()
		if err != nil {
			t.Fatalf("%d tiers: %v", n, err)
		}
		if again, _ := json.Marshal(back); string(again) != string(data) {
			t.Errorf("%d tiers: round trip\n%s\nwant\n%s", n, again, data)
		}

		last := w.Tiers[n-1].Name
		w.Edges = append(w.Edges, WireEdge{From: last, To: "nowhere", S: 1, R: 1})
		if _, err := w.Graph(); err == nil || err.Error() != `tag: edge references unknown tier "nowhere"` {
			t.Errorf("%d tiers, unknown edge target: %v", n, err)
		}
		w.Tiers = append(w.Tiers, WireTier{Name: last, N: 1})
		if _, err := w.Graph(); err == nil || err.Error() != fmt.Sprintf("tag: duplicate tier %q", last) {
			t.Errorf("%d tiers, duplicate last tier: %v", n, err)
		}
	}
}

func TestJSONSelfLoopForms(t *testing.T) {
	// Both "sr" and "s" spellings denote the self-loop guarantee.
	for _, c := range []string{
		`{"name":"x","tiers":[{"name":"a","n":3}],"edges":[{"from":"a","to":"a","sr":7}]}`,
		`{"name":"x","tiers":[{"name":"a","n":3}],"edges":[{"from":"a","to":"a","s":7}]}`,
	} {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err != nil {
			t.Fatalf("unmarshal %q: %v", c, err)
		}
		e := g.Edges()[0]
		if !e.SelfLoop() || e.S != 7 || e.R != 7 {
			t.Errorf("self-loop decoded as %+v", e)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New("dot")
	a := g.AddTier("a", 3)
	b := g.AddTier("b", 2)
	inet := g.AddExternal("inet", 0)
	g.AddEdge(a, b, 10, 15)
	g.AddSelfLoop(b, 5)
	g.AddEdge(a, inet, 1, 1)

	var sb strings.Builder
	if err := g.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`digraph "dot"`, `3 VMs`, `<10,15>`, `dir=both`, `dashed`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
