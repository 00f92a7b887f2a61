package tag_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/workload"
)

// bingBodies returns the wire form of the first n BingLike(1) TAGs at
// Bmax 800, the bench's admit bodies without the envelope.
func bingBodies(tb testing.TB, n int) [][]byte {
	pool := workload.BingLike(1)
	workload.ScaleToBmax(pool, 800)
	var out [][]byte
	for _, g := range pool[:min(n, len(pool))] {
		b, err := json.Marshal(g)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// wireCodecSeeds are inputs on both sides of the scanner's canonical
// subset: names with escapes, HTML-significant, non-ASCII or invalid
// UTF-8 bytes, the keys encoding/json folds, null, repeated scalars
// (last wins on both sides), a repeated array (encoding/json merges it
// into the first), a trailing value, and numbers at the edges of JSON's grammar and of
// float64's range.
var wireCodecSeeds = []string{
	`{"name":"x","tiers":[{"name":"a","n":2},{"name":"b","n":1}],"edges":[{"from":"a","to":"b","s":1.5,"r":2}]}`,
	`{"name":"<&>","tiers":[{"name":"a<b","n":2}],"edges":[{"from":"a<b","to":"a<b","sr":3}]}`,
	"{\"name\":\"line\u2028sep\",\"tiers\":[{\"name\":\"\u00e9\",\"n\":1}],\"edges\":[]}",
	"{\"name\":\"bad\xff\",\"tiers\":[{\"name\":\"a\",\"n\":1}],\"edges\":null}",
	`{"name":"x","TAG":{},"tiers":[{"name":"a","n":1}]}`,
	`{"name":"x","tiers":[{"name":"a","n":3}],"edges":[{"from":"a","to":"a","ſr":4}]}`,
	`null`,
	`{"name":"x","tiers":null,"edges":[]}`,
	`{"name":"x","name":"y","tiers":[{"name":"a","n":1,"n":2}]}`,
	`{"name":"x","tiers":[{"name":"a","n":1}],"tiers":[{"n":2}]}`,
	`{"name":"x","tiers":[{"name":"a","n":1}]} {}`,
	`{"name":"x","tiers":[{"name":"a","n":1},{"name":"b","n":1}],"edges":[{"from":"a","to":"b","s":1e400,"r":1}]}`,
	`{"name":"x","tiers":[{"name":"a","n":1},{"name":"b","n":1}],"edges":[{"from":"a","to":"b","s":-0,"r":1e-7}]}`,
	`{"name":"x","tiers":[{"name":"a","n":1},{"name":"b","n":1}],"edges":[{"from":"a","to":"b","s":1e21,"r":0x1p3}]}`,
	`{"name":"x","tiers":[{"name":"a","n":01}]}`,
	`{"name":"x","tiers":[{"name":"a","n":1234567890123456789}]}`,
	`{"name":"x","tiers":[{"name":"a","n":2.0},{"name":"b","n":1e0}]}`,
	`{"name":"x","tiers":[{"name":"a","external":true},{"name":"b","n":4}],"edges":[{"from":"b","to":"a","s":0.1,"r":123456.789012345678}]}`,
	"\t{ \"name\" : \"x\" , \"tiers\" : [ { \"name\" : \"a\" , \"n\" : 1 } ] , \"edges\" : [ ] }\r\n",
	`{"name":"x\"y","tiers":[]}`,
	`{"name":"\u0041\\n","tiers":[]}`,
	`{}`,
	``,
}

// FuzzWireCodec holds the TAG wire codec to encoding/json both ways.
//
// Decoding: whenever tag.Scanner reads an input to its end, json.Unmarshal
// into a Wire accepts it too and gives the same values, floats compared
// by bits and nil slices told from empty ones; and Graph.UnmarshalJSON,
// fast path or fallback, returns what json.Unmarshal + Wire.Graph does,
// error text included.
//
// Encoding: for a graph built from the input's bytes — names of any
// bytes, rates of any bits (−0, subnormals, NaN, ±Inf) — MarshalJSON
// returns exactly json.Marshal of the graph's Wire, or an error when
// that errors.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireCodecSeeds {
		f.Add([]byte(s))
	}
	for _, b := range bingBodies(f, 4) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireDecode(t, data)
		checkWireEncode(t, graphFromBytes(data))
	})
}

// TestWireCodecSeeds runs FuzzWireCodec's checks on its seeds in every
// plain test run, and pins which side of the subset each seed is on.
func TestWireCodecSeeds(t *testing.T) {
	fast := 0
	for _, s := range wireCodecSeeds {
		if checkWireDecode(t, []byte(s)) {
			fast++
		}
		checkWireEncode(t, graphFromBytes([]byte(s)))
	}
	for _, b := range bingBodies(t, 80) {
		if !checkWireDecode(t, b) {
			t.Errorf("a BingLike body is outside the canonical subset: %s", b)
		}
	}
	// The first two seeds, the whitespace-laden one, the one with a
	// U+2028 name, the repeated-scalar one, the -0/1e-7 one, the
	// external-tier one and {} stay on the fast path; every other seed
	// is declined.
	if fast != 8 {
		t.Errorf("%d seeds read on the fast path, want 8", fast)
	}
}

// checkWireDecode is FuzzWireCodec's decoder half. It reports whether
// the scanner read data to its end.
func checkWireDecode(t *testing.T, data []byte) bool {
	t.Helper()
	var ref tag.Wire
	refErr := json.Unmarshal(data, &ref)

	var w tag.Wire
	s := tag.NewScanner(data)
	s.Wire(&w)
	fast := s.End()
	if fast {
		if refErr != nil {
			t.Fatalf("scanner accepted %q, json.Unmarshal refuses it: %v", data, refErr)
		}
		if diff := wireDiff(w, ref); diff != "" {
			t.Fatalf("scanner and json.Unmarshal disagree on %q: %s", data, diff)
		}
	}

	var g tag.Graph
	err := g.UnmarshalJSON(data)
	var want *tag.Graph
	wantErr := refErr
	if wantErr == nil {
		want, wantErr = ref.Graph()
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("UnmarshalJSON(%q) = %v, want %v", data, err, wantErr)
	}
	if err == nil {
		if diff := graphDiff(&g, want); diff != "" {
			t.Fatalf("UnmarshalJSON(%q): %s", data, diff)
		}
		checkWireEncode(t, &g)
	}
	return fast
}

// checkWireEncode is FuzzWireCodec's encoder half.
func checkWireEncode(t *testing.T, g *tag.Graph) {
	t.Helper()
	want, wantErr := json.Marshal(refWire(g))
	got, err := g.MarshalJSON()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("MarshalJSON of %v: error %v, want %v", g, err, wantErr)
	}
	if string(got) != string(want) {
		t.Fatalf("MarshalJSON of %v:\n got %s\nwant %s", g, got, want)
	}
	prefix := []byte("prefix")
	app, err := g.AppendJSON(prefix)
	if string(app) != string(prefix)+string(want) || (err == nil) != (wantErr == nil) {
		t.Fatalf("AppendJSON of %v = %q, %v; want the prefix and %s", g, app, err, want)
	}
}

// refWire is the graph's wire form built field by field: the value
// encoding/json is the oracle for.
func refWire(g *tag.Graph) tag.Wire {
	w := tag.Wire{Name: g.Name}
	for i := 0; i < g.Tiers(); i++ {
		t := g.Tier(i)
		w.Tiers = append(w.Tiers, tag.WireTier{Name: t.Name, N: t.N, External: t.External})
	}
	for _, e := range g.Edges() {
		we := tag.WireEdge{From: g.Tier(e.From).Name, To: g.Tier(e.To).Name}
		if e.SelfLoop() {
			we.SR = e.S
		} else {
			we.S, we.R = e.S, e.R
		}
		w.Edges = append(w.Edges, we)
	}
	return w
}

// graphFromBytes builds an unvalidated graph from fuzz bytes: a tier or
// edge count, then per tier a name of up to 7 bytes, a size and an
// external flag, and per edge two tier indices and two rates of any bit
// pattern.
func graphFromBytes(data []byte) *tag.Graph {
	next := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	byte1 := func() int {
		if b := next(1); len(b) == 1 {
			return int(b[0])
		}
		return 0
	}
	rate := func() float64 {
		var b [8]byte
		copy(b[:], next(8))
		if b[7]&0x80 == 0 { // half the rates are small and exact
			return float64(int8(b[0])) / 4
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	g := tag.New(string(next(byte1() % 8)))
	tiers := byte1() % 6
	for i := 0; i < tiers; i++ {
		name := string(next(byte1() % 8))
		n := byte1() - 8
		if byte1()%4 == 0 {
			g.AddExternal(name, n)
		} else {
			g.AddTier(name, n)
		}
	}
	edges := byte1() % 8
	for i := 0; tiers > 0 && i < edges; i++ {
		u, v := byte1()%tiers, byte1()%tiers
		if s := rate(); u == v {
			g.AddSelfLoop(u, s)
		} else {
			g.AddEdge(u, v, s, rate())
		}
	}
	return g
}

// wireDiff describes the first difference between two Wires, or "".
func wireDiff(a, b tag.Wire) string {
	switch {
	case a.Name != b.Name:
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	case (a.Tiers == nil) != (b.Tiers == nil) || len(a.Tiers) != len(b.Tiers):
		return fmt.Sprintf("tiers %#v vs %#v", a.Tiers, b.Tiers)
	case (a.Edges == nil) != (b.Edges == nil) || len(a.Edges) != len(b.Edges):
		return fmt.Sprintf("edges %#v vs %#v", a.Edges, b.Edges)
	}
	for i := range a.Tiers {
		if a.Tiers[i] != b.Tiers[i] {
			return fmt.Sprintf("tier %d: %#v vs %#v", i, a.Tiers[i], b.Tiers[i])
		}
	}
	for i, ea := range a.Edges {
		eb := b.Edges[i]
		if ea.From != eb.From || ea.To != eb.To || !sameBits(ea.S, eb.S) || !sameBits(ea.R, eb.R) || !sameBits(ea.SR, eb.SR) {
			return fmt.Sprintf("edge %d: %#v vs %#v", i, ea, eb)
		}
	}
	return ""
}

// graphDiff describes the first difference between two graphs, or "".
func graphDiff(a, b *tag.Graph) string {
	if a.Name != b.Name || a.Tiers() != b.Tiers() || len(a.Edges()) != len(b.Edges()) {
		return fmt.Sprintf("graph %v vs %v", a, b)
	}
	for i := 0; i < a.Tiers(); i++ {
		if a.Tier(i) != b.Tier(i) {
			return fmt.Sprintf("tier %d: %#v vs %#v", i, a.Tier(i), b.Tier(i))
		}
	}
	for i, ea := range a.Edges() {
		eb := b.Edges()[i]
		if ea.From != eb.From || ea.To != eb.To || !sameBits(ea.S, eb.S) || !sameBits(ea.R, eb.R) {
			return fmt.Sprintf("edge %d: %#v vs %#v", i, ea, eb)
		}
	}
	return ""
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// BenchmarkWireCodec times one BingLike TAG body through each direction
// of the codec: decode is Graph.UnmarshalJSON (scan, resolve, validate),
// encode is Graph.MarshalJSON.
func BenchmarkWireCodec(b *testing.B) {
	bodies := bingBodies(b, 80)
	graphs := make([]*tag.Graph, len(bodies))
	for i, body := range bodies {
		graphs[i] = new(tag.Graph)
		if err := graphs[i].UnmarshalJSON(body); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var g tag.Graph
			if err := g.UnmarshalJSON(bodies[i%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graphs[i%len(graphs)].MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
