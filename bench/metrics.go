package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric of the contract in BENCHMARK.json.
// TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	// moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload; for an end-to-end metric, what
	// it measures on each kind of workload.
	moves string
}

// endToEnd are the metrics a user of the controller sees. Every
// workload reports every one of them, so each is defined on both kinds
// of workload: an "op" is a successful admit on the admission
// workloads and a control period on the enforcement workloads. The
// three timings are in the time of a quiet box (reference.go); the
// wall-clock values are printed with them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "daemon exec or New until the first timed op: boot, fill or fleet admit, warm-up; median of the run's set-ups, each over the slowdown read around it"},
	{"ops_per_s", "1/s", "higher", 0.25, "lifecycle ops (admits incl. rejections, resizes, releases) or control periods of the timed phase per second of it; each of its 20 segments counts for its wall time over the slowdown read around it"},
	{"op_ms_p50", "ms", "lower", 0.25, "caller-observed median of a successful admit, or of a control period (its SetDemand calls plus Step), each over the slowdown read around its segment"},
	{"peak_rss_mb", "MB", "lower", 0.10, "VmHWM of bwd (HTTP workloads) or of the workload's own process"},
	{"admitted_bw_share", "share", "higher", 0.05, "admitted / requested aggregate bandwidth over the timed admits (fleet admits on enforcement workloads): a faster placer that admits less is a regression"},
}

// perLayer are the single-layer metrics of the traced run. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"client.admit_ms_p50", "ms", "lower", 0, "traced twin of op_ms_p50 on the admission workloads"},
	{"client.admit_ms_p95", "ms", "lower", 0, "tail of successful admits: large tenants on lib_packed, snapshot stalls on http_durable; too unsteady on a shared box to carry a bound"},
	{"client.admit_ms_p99", "ms", "lower", 0, "the same, further out"},
	{"client.reject_ms_p50", "ms", "lower", 0, "time to be told no; ops_per_s on lib_packed"},
	{"client.resize_ms_p50", "ms", "lower", 0, "ops_per_s on http_light, http_durable"},
	{"client.release_ms_p50", "ms", "lower", 0, "ops_per_s on http_light, http_durable"},
	{"client.rejected_bw_share", "share", "lower", 0, "1 - admitted_bw_share"},

	{"bwd.boot_ms", "ms", "lower", 0, "setup_s on http_light, http_durable"},
	{"bwd.recovery_ms_p50", "ms", "lower", 0, "kill -9, exec on the crashed ledger, until /v1/healthz is 200; no end-to-end twin (see README)"},
	{"bwd.roundtrip_us_p50", "us", "lower", 0, "op_ms_p50, ops_per_s on http_light; diluted on http_durable"},
	{"bwd.transport_self_us_p50", "us", "lower", 0, "round trip minus handler: net/http, loopback, client; op_ms_p50 on http_light"},
	{"bwd.req_bytes_mean", "B", "lower", 0, "bwd.transport_self_us_p50, tag.decode_us_p50"},
	{"bwd.resp_bytes_mean", "B", "lower", 0, "bwd.transport_self_us_p50, tag.encode_us_p50"},

	{"httpapi.admit_us_p50", "us", "lower", 0, "op_ms_p50 on http_light"},
	{"httpapi.admit_self_us_p50", "us", "lower", 0, "decode, registry, encode; op_ms_p50 on http_light"},
	{"httpapi.resize_self_us_p50", "us", "lower", 0, "ops_per_s on http_light"},
	{"httpapi.release_self_us_p50", "us", "lower", 0, "ops_per_s on http_light"},
	{"httpapi.busy_share", "share", "lower", 0, "ops_per_s on http_light; 0 on lib_packed"},

	{"guarantee.admit_us_p50", "us", "lower", 0, "op_ms_p50 on lib_packed (the fixed per-admit cost), http_durable (lock, log write, fsync wait)"},
	{"guarantee.admit_us_p99", "us", "lower", 0, "client.admit_ms_p99 on lib_packed"},
	{"guarantee.admit_self_us_p50", "us", "lower", 0, "admit minus placer: dispatch, combiner, snapshot bracket, delta apply; op_ms_p50 on lib_packed"},
	{"guarantee.resize_us_p50", "us", "lower", 0, "ops_per_s on http_light, http_durable"},
	{"guarantee.release_us_p50", "us", "lower", 0, "ops_per_s on all admission workloads"},
	{"guarantee.busy_share", "share", "lower", 0, "ops_per_s on http_durable, lib_packed"},
	{"guarantee.allocs_per_op", "count", "lower", 0, "heap objects per op, whole traced process; peak_rss_mb, ops_per_s"},
	{"guarantee.alloc_bytes_per_op", "B", "lower", 0, "heap bytes per op, whole traced process; peak_rss_mb"},
	{"guarantee.snapshot_ms_p50", "ms", "lower", 0, "five forced snapshots; client.admit_ms_p99 on http_durable"},
	{"guarantee.open_ms", "ms", "lower", 0, "guarantee.Open on the crashed ledger; bwd.recovery_ms_p50"},

	{"cloudmirror.place_us_p50", "us", "lower", 0, "op_ms_p50 on lib_packed"},
	{"cloudmirror.place_us_p99", "us", "lower", 0, "client.admit_ms_p99, ops_per_s on lib_packed"},
	{"cloudmirror.reject_us_p50", "us", "lower", 0, "exhaustive search before a no; ops_per_s on lib_packed"},
	{"cloudmirror.calls_per_arrival", "count", "lower", 0, "ops_per_s on lib_packed"},
	{"cloudmirror.busy_share", "share", "lower", 0, "ops_per_s on lib_packed; small on http_light"},
	{"cloudmirror.useful_share", "share", "higher", 0, "time in placements that succeeded / all placement time; ops_per_s on lib_packed"},

	{"wal.fsyncs_per_op", "count", "lower", 0, "op_ms_p50, ops_per_s on http_durable only"},
	{"wal.records_per_op", "count", "lower", 0, "ops_per_s on http_durable only"},
	{"wal.bytes_per_op", "B", "lower", 0, "ops_per_s, bwd.recovery_ms_p50 on http_durable only"},
	{"wal.snapshots", "count", "lower", 0, "client.admit_ms_p99 on http_durable only"},
	{"wal.snapshot_bytes", "B", "lower", 0, "guarantee.snapshot_ms_p50, guarantee.open_ms"},

	{"tag.decode_us_p50", "us", "lower", 0, "probe; explains httpapi.admit_self_us_p50"},
	{"tag.encode_us_p50", "us", "lower", 0, "probe; explains httpapi.*_self_us_p50"},
	{"place.validate_us_p50", "us", "lower", 0, "probe; explains guarantee.admit_self_us_p50"},
	{"topology.snapshot_bracket_us_p50", "us", "lower", 0, "probe: Tree.Save + RestoreSnapshot; explains guarantee.admit_self_us_p50"},
	{"topology.new_ms", "ms", "lower", 0, "probe; setup_s"},

	{"dataplane.set_demand_us_p50", "us", "lower", 0, "op_ms_p50 on enforce_storm"},
	{"dataplane.step_ms_p50", "ms", "lower", 0, "op_ms_p50 on both enforcement workloads"},
	{"dataplane.step_ms_p95", "ms", "lower", 0, "tail of a period on both enforcement workloads; carries no bound for the same reason as client.admit_ms_p95"},
	{"dataplane.components_mean", "count", "lower", 0, "dataplane.step_ms_p50"},
	{"dataplane.solved_components_mean", "count", "lower", 0, "dataplane.step_ms_p50"},
	{"dataplane.solved_share", "share", "lower", 0, "about 0.01 on enforce_steady, 1 on enforce_storm"},
	{"dataplane.pairs", "count", "lower", 0, "dataplane.step_ms_p50"},
	{"dataplane.colocated_pairs", "count", "higher", 0, "dataplane.pairs"},
	{"dataplane.converge_ms_p50", "ms", "lower", 0, "ops_per_s on enforce_storm"},
	{"dataplane.converge_iters_mean", "count", "lower", 0, "dataplane.converge_ms_p50"},
	{"dataplane.fabric_build_ms", "ms", "lower", 0, "probe; setup_s on the enforcement workloads"},
	{"dataplane.bind_us_p50", "us", "lower", 0, "probe; setup_s on the enforcement workloads"},
	{"dataplane.largest_component_share", "share", "lower", 0, "probe: pairs in the largest component / all pairs; why a 1%-dirty period can cost a full solve"},
	{"dataplane.step_overhead_ms_p50", "ms", "lower", 0, "step minus (gp + ra + maxmin) probes: what solving every component serially does not explain"},
	{"enforce.gp_ms_p50", "ms", "lower", 0, "probe: every component of the fleet solved once; op_ms_p50 on enforce_storm"},
	{"enforce.ra_ms_p50", "ms", "lower", 0, "probe: every component of the fleet solved once; op_ms_p50 on enforce_storm"},
	{"netem.maxmin_ms_p50", "ms", "lower", 0, "probe: every component of the fleet solved once; op_ms_p50 on enforce_storm"},
	{"netem.flows", "count", "lower", 0, "netem.maxmin_ms_p50"},
	{"netem.links", "count", "lower", 0, "netem.maxmin_ms_p50"},

	{"bench.client_busy_share", "share", "lower", 0, "caller time outside the calls it times; above 0.10 the generator is the bottleneck"},
	{"bench.trace_overhead_share", "share", "lower", 0, "traced wall per op over untraced, minus 1"},
	{"bench.unattributed_share", "share", "lower", 0, "timed wall inside no root span; the traced run fails above 0.05"},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, 0 when it is not a sample statistic
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	traced    bool
	attempted int
	metrics   map[string]metric
	hash      string // decision transcript
	notes     []string
	failures
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, metrics: make(map[string]metric)}
}

// set records a metric; the unit comes from the contract tables.
func (r *result) set(name string, value float64, n int) {
	r.metrics[name] = metric{Value: value, Unit: unitOf(name), n: n}
}

// setUnattributed records the share of the timed wall that no span
// covers; above 0.05 the trace does not account for the run and the
// run fails.
func (r *result) setUnattributed(share float64) {
	r.set("bench.unattributed_share", share, 0)
	if share > 0.05 {
		r.fail(fmt.Errorf("%.1f%% of the timed phase is inside no span", 100*share))
	}
}

// noteTail adds the highest percentile the sample set supports — the
// one with at least ten samples beyond it — next to the fixed p50 and
// p95 the contract names.
func (r *result) noteTail(what string, sorted samples) {
	if p := tailPercentile(len(sorted)); p > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%s: p%g = %.4f ms (n=%d)", what, 100*p, ms(percentile(sorted, p)), len(sorted)))
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// contractLine is the JSON object the run ends with.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line renders the result as the contract's last line: every
// end-to-end metric for an untraced run, every per-layer metric (0
// where the workload has none) for a traced one.
func (r *result) line() (string, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := contractLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			if !r.traced {
				return "", fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
			}
			m = metric{Unit: d.unit}
		}
		out.Metrics[d.name] = m
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// print lists every metric the run measured, by name, with unit and
// sample count.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		if m.n > 0 {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, note := range r.notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}
}
