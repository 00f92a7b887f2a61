// Command bwd is the bandwidth-guarantee daemon: the CloudMirror
// controller as a service. It builds a guarantee.Service over a
// simulated datacenter fleet and serves admit / resize / release /
// stats as an HTTP JSON API, so applications request, scale, and drop
// bandwidth guarantees the way the paper's workflows describe (§2,
// Fig. 2) instead of linking the library. Every tenant is placed by
// CloudMirror and priced by its own TAG.
//
// Usage:
//
//	bwd [-addr :8080] [-servers 128|512|2048] [-shards N] [-policy rr|least|p2c]
//	    [-seed N] [-enforce] [-enforce-alpha F]
//	    [-wal-dir DIR] [-snapshot-every N] [-pprof localhost:6060]
//
// Endpoints (bodies are JSON; TAGs use the internal/tag wire format):
//
//	POST   /v1/guarantees              admit a TAG            -> 201 + grant
//	GET    /v1/guarantees/{id}         grant + its TAG        -> 200
//	POST   /v1/guarantees/{id}/resize  resize tiers in place  -> 200 + grant
//	DELETE /v1/guarantees/{id}         release                -> 204
//	GET    /v1/stats                   counters + shard loads -> 200
//	POST   /v1/enforcement/step        run one control period -> 200
//	GET    /v1/enforcement             last period + events   -> 200
//	GET    /v1/healthz                 liveness + WAL lag     -> 200
//	POST   /v1/snapshot                snapshot now           -> 200
//	GET    /v1/wal                     log position           -> 200
//	GET    /healthz                    liveness               -> 200
//
// Replies are one line of compact JSON each; pipe them to jq to read
// them. A grant is {"id","shard","vms","servers","reserved_mbps"}:
// admit and resize return it without the TAG the client just sent, GET
// adds the TAG the grant currently guarantees. Admit and resize bodies
// are capped at 1 MiB (413 past it). An admit body's optional positive
// "id" names the grant g-<id>, refused with 400 while a live grant
// holds it. A client that trickles its request is cut off at the read
// timeout (see newServer).
//
// With -wal-dir the daemon is durable: every admit/resize/release is
// fsynced to a write-ahead log under the directory before it is
// acknowledged, and snapshots truncate the log every -snapshot-every
// events. If the directory already holds a ledger the daemon recovers
// it (the topology/policy flags are then read from the ledger, not the
// command line); otherwise it starts fresh. On SIGTERM
// the daemon drains HTTP, writes a final snapshot, and closes the log,
// so the next start replays nothing.
//
// With -enforce the daemon attaches the enforcement dataplane: every
// admit/resize/release is applied to it incrementally, and guarantees
// are partitioned per TAG hose (the paper's §5.2 patch). POST
// /v1/enforcement/step advances the work-conserving GP/RA control
// loop one period and reports per-tenant achieved vs. guaranteed
// bandwidth; GET /v1/enforcement is read-only (polling it never moves
// a rate limiter), returning the latest period plus live lifecycle
// counters.
//
// Every rejection carries a machine-readable reason code in its JSON
// body ({"error":{"reason":"insufficient_bandwidth",...}}); capacity
// rejections map to 409, malformed requests to 400, a closed or wedged
// service to 503, released grants to 410.
//
// Example session:
//
//	bwd -addr :8080 -servers 512 &
//	curl -s localhost:8080/v1/guarantees -d '{
//	  "tag": {"name":"shop",
//	          "tiers":[{"name":"web","n":8},{"name":"db","n":4}],
//	          "edges":[{"from":"web","to":"db","s":100,"r":300}]},
//	  "rwcs": 0.5}'
//	curl -s localhost:8080/v1/guarantees/g-1 | jq .
//	curl -s localhost:8080/v1/guarantees/g-1/resize -d '{
//	  "tag": {"name":"shop",
//	          "tiers":[{"name":"web","n":16},{"name":"db","n":4}],
//	          "edges":[{"from":"web","to":"db","s":100,"r":300}]}}'
//	curl -s -X DELETE localhost:8080/v1/guarantees/g-1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/topology"
)

// API server timeouts, so a slow client cannot hold a handler
// goroutine: the headers must arrive within readHeaderTimeout and the
// whole request (bodies are capped at 1 MiB) within readTimeout; the
// reply must be written within writeTimeout of the request's headers;
// a keep-alive connection idle for idleTimeout is closed.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newServer builds the HTTP server for handler on addr with every
// timeout set.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	servers := flag.Int("servers", 512, "per-shard datacenter size: 128, 512, or 2048 servers")
	shards := flag.Int("shards", 1, "number of independent datacenter trees behind the dispatcher")
	policy := flag.String("policy", "rr", "dispatch policy: rr, least, p2c")
	seed := flag.Int64("seed", 1, "seed for randomized dispatch policies")
	enforce := flag.Bool("enforce", false, "attach the enforcement dataplane (serves GET /v1/enforcement)")
	alpha := flag.Float64("enforce-alpha", 1, "enforcement rate-limiter convergence step in (0,1]")
	walDir := flag.String("wal-dir", "", "durable ledger directory: write-ahead log + snapshots (empty = in-memory)")
	snapEvery := flag.Int("snapshot-every", 1024, "events between automatic snapshots (needs -wal-dir)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof profiling on this address (e.g. localhost:6060; empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		// The profiler gets its own listener so the production API
		// surface never exposes debug endpoints.
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			srv := newServer(*pprofAddr, mux)
			// No write timeout: /debug/pprof/profile and /trace stream
			// for the requested ?seconds= before the reply ends.
			srv.WriteTimeout = 0
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal(fmt.Errorf("pprof listener: %w", err))
			}
		}()
		fmt.Fprintf(os.Stderr, "bwd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// Enforcement tuning without enforcement would be silently dropped;
	// fail fast like simulate does for -resize without -churn.
	if !*enforce && *alpha != 1 {
		fatal(fmt.Errorf("-enforce-alpha needs -enforce: the daemon starts no dataplane without it"))
	}
	if *walDir == "" && *snapEvery != 1024 {
		fatal(fmt.Errorf("-snapshot-every needs -wal-dir: the daemon keeps no log without it"))
	}

	var spec topology.Spec
	switch *servers {
	case 128:
		spec = topology.SmallSpec()
	case 512:
		spec = topology.MediumSpec()
	case 2048:
		spec = topology.PaperSpec()
	default:
		fatal(fmt.Errorf("unsupported -servers %d: valid values are 128, 512, 2048", *servers))
	}

	opts := []guarantee.Option{
		guarantee.WithShards(*shards),
		guarantee.WithPolicy(*policy),
		guarantee.WithSeed(*seed),
	}
	if *enforce {
		opts = append(opts, guarantee.WithEnforcement(guarantee.EnforcementConfig{Alpha: *alpha}))
	}
	var svc guarantee.Service
	var err error
	recovered := false
	switch {
	case *walDir != "" && guarantee.HasLedger(*walDir):
		// The ledger carries the topology and configuration it was
		// created with; recovery rebuilds the exact pre-crash state.
		svc, err = guarantee.Open(*walDir)
		if err == nil {
			recovered = true
			st := svc.Durability().Stats()
			fmt.Fprintf(os.Stderr, "bwd: recovered ledger %s (generation %d)\n", *walDir, st.Gen)
		}
	case *walDir != "":
		opts = append(opts,
			guarantee.WithDurability(*walDir),
			guarantee.WithSnapshotEvery(*snapEvery))
		svc, err = guarantee.New(spec, opts...)
	default:
		svc, err = guarantee.New(spec, opts...)
	}
	if err != nil {
		fatal(err)
	}

	srv := newServer(*addr, guarantee.NewServer(svc).Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if recovered {
		// The topology and admission flags came from the ledger, not
		// the command line — don't echo flag defaults as fact.
		fmt.Fprintf(os.Stderr, "bwd: serving %s guarantees on %s (%d shards, policy %s, recovered ledger)\n",
			svc.Name(), *addr, svc.Shards(), svc.Policy())
	} else {
		fmt.Fprintf(os.Stderr, "bwd: serving %s guarantees on %s (%d shards × %d servers, policy %s)\n",
			svc.Name(), *addr, svc.Shards(), *servers, svc.Policy())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "bwd: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(err)
		}
		// Drained: flush a final snapshot and close the log, so the
		// next start recovers without replaying anything.
		if err := svc.Close(ctx); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bwd:", err)
	os.Exit(1)
}
