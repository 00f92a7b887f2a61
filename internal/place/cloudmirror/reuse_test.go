package cloudmirror

import (
	"slices"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/topology"
)

// TestDifferentialScanReuse replays the packed-churn stream and, before
// each arrival is admitted, drives a Colocate loop by hand on the same
// ledger at every level the tenant could be tried at. Whenever the loop
// answers from its kept scan instead of rescanning, the test asks a
// fresh findTiersToColoc (into its own table) the same question: same
// child, same per-tier counts, or the reuse criterion is wrong. The
// probing is bracketed by a ledger snapshot, and the replay must still
// produce the golden decision hash.
//
// The configurations with declared resources and with guaranteed HA run
// too: there the loop must rescan (resources) or may reuse only rows
// priced under the Eq. 7 bound, and the comparison holds all the same.
func TestDifferentialScanReuse(t *testing.T) {
	for _, cfg := range packedConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			ops, _, golden := packedStream(cfg)
			var snap *topology.Snapshot
			reused, scans := 0, 0

			probe := func(p *Placer, tree *topology.Tree, req *place.Request) {
				if snap == nil {
					snap = tree.NewSnapshot()
				}
				tree.Save(snap)
				defer tree.RestoreSnapshot(snap)
				r := &p.scratch
				r.reset(p, req.Graph, req.Graph, req.HA, req.Resources)
				if p.tx == nil {
					p.tx = place.NewTxn(tree, req.Graph)
				} else {
					p.tx.Reset(tree, req.Graph)
				}
				r.tx = p.tx
				r.tx.SetResources(req.Resources)
				for lvl := 1; lvl <= tree.Height(); lvl++ {
					st := r.findLowestSubtree(lvl)
					if st == topology.NoNode {
						break
					}
					lvl = tree.Level(st)
					quota := slices.Clone(r.sizes)
					loop := colocLoop{st: st, rows: r.colocRowsFor(st)}
					fresh := make([]colocRow, len(tree.Children(st)))
					for {
						kept := loop.unchanged
						adds, child := loop.next(r, quota)
						if kept {
							reused++
							wantAdds, wantChild := r.findTiersToColoc(st, quota, loop.failed, fresh)
							if child != wantChild || !slices.Equal(adds, wantAdds) {
								t.Fatalf("tenant %q at node %d after %d refusals: kept scan answers child %d adds %v, a fresh scan child %d adds %v",
									req.Graph.Name, st, len(loop.failed), child, adds, wantChild, wantAdds)
							}
							if wantAdds != nil {
								r.putInts(wantAdds)
							}
						} else {
							scans++
						}
						if adds == nil {
							break
						}
						loop.try(r, quota, adds, child)
					}
					r.tx.ReleaseAll()
				}
			}

			// The probes are invisible to the replay: same decisions, same
			// final ledger bits as the golden run.
			if got, _ := replayPacked(t, cfg, ops, probe); got != golden {
				t.Errorf("decision hash %s with the probes in, want %s", got, golden)
			}
			t.Logf("%d scans, %d answers from a kept scan", scans, reused)
			switch {
			case cfg.resources != nil && reused != 0:
				t.Errorf("%d answers from a kept scan for tenants that declare resources", reused)
			case cfg.resources == nil && reused < 100:
				t.Errorf("only %d answers from a kept scan: the replay does not exercise the reuse", reused)
			}
		})
	}
}
