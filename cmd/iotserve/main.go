// Command iotserve analyzes a dataset and serves the results over the
// authenticated HTTP API (see internal/apiserve), realizing the paper's
// plan to share IoT-relevant malicious empirical data, attack signatures,
// and threat intelligence with the community.
//
// iotserve is built to run unattended:
//
//   - SIGINT/SIGTERM drain gracefully: /healthz flips to draining,
//     in-flight requests finish (bounded by -drain), and a clean close
//     exits 0.
//   - SIGHUP hot-reloads the dataset: the load runs as a staged pipeline
//     (open → load-store → verify → analyze, see core.LoadSnapshotOpts)
//     under the -reload-timeout deadline before an atomic swap; a bad or
//     overrun reload keeps the old snapshot serving and marks health
//     degraded. -reload-poll additionally watches the dataset directory
//     mtime and reloads when it changes. The latest load's per-stage
//     report is served at /v1/pipeline and written to -stage-report.
//   - -snapshot FILE cold-starts from a result store artifact written by
//     iotinfer -save, skipping verification and re-analysis. At boot a
//     corrupt, truncated, or stale artifact falls back to raw analysis
//     with the reason surfaced as degraded health; on hot reload the
//     store is mandatory (a bad artifact keeps the old snapshot — a
//     reload must never silently pay a full re-analysis). /healthz
//     reports the provenance either way.
//   - Admission control sheds load instead of collapsing: -max-inflight
//     caps concurrency (503 + Retry-After), -rate/-burst rate-limit each
//     token (429 + Retry-After), and -request-timeout propagates a
//     context deadline to every handler.
//   - -debug-addr (off by default) binds an operator-only observability
//     server: /debug/vars (snapshot generation, matview build stats,
//     request/304 counters, shed and 429 counts) and the net/http/pprof
//     endpoints. It carries no auth — keep it on loopback or an internal
//     network.
//
// Usage:
//
//	iotserve -data DIR -token SECRET [-token SECRET2 ...] [-addr :8642]
//	         [-snapshot store.irs]
//	         [-max-inflight 256] [-rate 0] [-burst 0] [-request-timeout 30s]
//	         [-drain 10s] [-reload-poll 0] [-reload-timeout 2m]
//	         [-stage-report FILE|-] [-debug-addr 127.0.0.1:8643]
//
// Endpoints (Bearer auth except /healthz):
//
//	GET /healthz
//	GET /v1/summary
//	GET /v1/devices?country=RU&category=cps&limit=100&offset=0
//	GET /v1/devices/{id}
//	GET /v1/threats/{ip}
//	GET /v1/spikes?threshold=8
//	GET /v1/ports/tcp  /v1/ports/udp?n=10
//	GET /v1/signatures
//	GET /v1/campaigns
//	GET /v1/malware
//	GET /v1/pipeline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iotscope/internal/apiserve"
	"iotscope/internal/core"
	"iotscope/internal/pipeline"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iotserve:", err)
		os.Exit(1)
	}
}

// testReady, when non-nil, receives the bound listen address once the
// server is accepting connections (chaos tests bind to :0).
var testReady chan<- string

// tokenList collects repeatable -token flags.
type tokenList []string

func (t *tokenList) String() string { return fmt.Sprintf("%d token(s)", len(*t)) }
func (t *tokenList) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("iotserve", flag.ContinueOnError)
	var tokens tokenList
	var (
		data       = fs.String("data", "", "dataset directory (required)")
		snapshot   = fs.String("snapshot", "", "result store artifact to serve from (written by iotinfer -save)")
		addr       = fs.String("addr", ":8642", "listen address")
		maxInFl    = fs.Int("max-inflight", 256, "max concurrent requests before shedding 503 (0 disables)")
		rate       = fs.Float64("rate", 0, "per-token request rate limit in req/s (0 disables)")
		burst      = fs.Int("burst", 0, "per-token burst allowance (defaults to 2x -rate)")
		reqTimeout = fs.Duration("request-timeout", 30*time.Second, "per-request context deadline (0 disables)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
		reloadPoll = fs.Duration("reload-poll", 0, "poll the dataset dir mtime and hot-reload on change (0 disables; SIGHUP always reloads)")
		reloadTO   = fs.Duration("reload-timeout", 2*time.Minute, "deadline for a hot reload's load pipeline (0 disables)")
		stageRep   = fs.String("stage-report", "", "write the boot load's per-stage pipeline metrics JSON to this file (- = stderr)")
		debugAddr  = fs.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (off when empty; no auth — bind loopback)")
	)
	fs.Var(&tokens, "token", "API bearer token (repeatable; at least one required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || len(tokens) == 0 {
		return fmt.Errorf("-data and -token are required")
	}
	if *drain <= 0 {
		return fmt.Errorf("-drain must be positive")
	}
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"max-inflight", *maxInFl < 0}, {"rate", *rate < 0}, {"burst", *burst < 0},
		{"request-timeout", *reqTimeout < 0}, {"reload-poll", *reloadPoll < 0}, {"reload-timeout", *reloadTO < 0},
	} {
		if f.negative {
			return fmt.Errorf("-%s must not be negative", f.name)
		}
	}

	fmt.Fprintf(os.Stderr, "loading and verifying dataset %s ...\n", *data)
	// At boot a bad store falls back to raw analysis (RequireStore false):
	// better to come up degraded than not at all.
	ds, res, prov, loadRep, err := core.LoadSnapshotOpts(context.Background(), *data,
		core.LoadOptions{Store: *snapshot})
	if emitErr := pipeline.EmitReport(loadRep, *stageRep); emitErr != nil && err == nil {
		err = emitErr
	}
	if err != nil {
		return err
	}
	if prov.Fallback != "" {
		fmt.Fprintf(os.Stderr, "iotserve: snapshot store unusable, analyzed raw hours instead: %s\n", prov.Fallback)
	}

	var opts []apiserve.Option
	if *maxInFl > 0 {
		opts = append(opts, apiserve.WithConcurrencyLimit(*maxInFl, time.Second))
	}
	if *rate > 0 {
		b := *burst
		if b <= 0 {
			b = int(2 * *rate)
			if b < 1 {
				b = 1
			}
		}
		opts = append(opts, apiserve.WithRateLimit(*rate, b))
	}
	if *reqTimeout > 0 {
		opts = append(opts, apiserve.WithRequestTimeout(*reqTimeout))
	}
	api, err := apiserve.New(ds, res, tokens, opts...)
	if err != nil {
		return err
	}
	api.SetLoadReport(loadRep)
	api.SetProvenance(prov)

	// Signals are registered before the listener exists so no signal can
	// hit the default handler (process kill) once the address is
	// published.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigCh)

	// Listen separately from Serve so a bind failure is reported as such
	// (and tests can use :0 and learn the bound port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(os.Stderr, "serving %d inferred devices on %s (%d token(s), snapshot gen %d)\n",
		res.Summary.Total, ln.Addr(), len(tokens), api.Generation())
	if testReady != nil {
		testReady <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			httpSrv.Close()
			return fmt.Errorf("debug listen %s: %w", *debugAddr, err)
		}
		dbgSrv := &http.Server{
			Handler:           api.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		defer dbgSrv.Close()
		go dbgSrv.Serve(dln) //nolint:errcheck // closed on exit
		fmt.Fprintf(os.Stderr, "iotserve: debug endpoints on %s (unauthenticated)\n", dln.Addr())
	}

	var pollCh <-chan time.Time
	var lastMtime time.Time
	if *reloadPoll > 0 {
		lastMtime = dirMtime(*data)
		t := time.NewTicker(*reloadPoll)
		defer t.Stop()
		pollCh = t.C
	}

	for {
		select {
		case err := <-serveErr:
			// Serve returned without a shutdown being requested. A clean
			// close is a clean exit; anything else is a real
			// listener/accept failure.
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return fmt.Errorf("serve: %w", err)

		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				reload(api, *data, *snapshot, *reloadTO)
				continue
			}
			// SIGINT/SIGTERM: drain in-flight requests, bounded.
			fmt.Fprintf(os.Stderr, "iotserve: %v received, draining (max %v) ...\n", sig, *drain)
			api.SetDraining(true)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			shutdownErr := httpSrv.Shutdown(ctx)
			cancel()
			if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("serve: %w", err)
			}
			if shutdownErr != nil {
				httpSrv.Close()
				return fmt.Errorf("drain deadline exceeded, connections force-closed: %w", shutdownErr)
			}
			fmt.Fprintln(os.Stderr, "iotserve: drained, clean exit")
			return nil

		case <-pollCh:
			if m := dirMtime(*data); m.After(lastMtime) {
				lastMtime = m
				fmt.Fprintf(os.Stderr, "iotserve: dataset dir changed, reloading ...\n")
				reload(api, *data, *snapshot, *reloadTO)
			}
		}
	}
}

// reload validates, analyzes, and swaps in the dataset at dir, running the
// load pipeline under the reload deadline. With a store configured the
// reload is gated on it verifying (RequireStore): a corrupt or stale
// artifact rejects the reload and the old snapshot keeps serving — a hot
// reload must never fall back to a surprise full re-analysis inside the
// deadline. On any failure the current snapshot keeps serving and health
// reports degraded. The per-stage report of the attempt (successful or
// not) replaces the one served at /v1/pipeline.
func reload(api *apiserve.Server, dir, store string, timeout time.Duration) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ds, res, prov, rep, err := core.LoadSnapshotOpts(ctx, dir,
		core.LoadOptions{Store: store, RequireStore: store != ""})
	api.SetLoadReport(rep)
	if err != nil {
		api.NoteReloadFailure(err)
		fmt.Fprintf(os.Stderr, "iotserve: reload rejected, keeping snapshot gen %d: %v\n",
			api.Generation(), err)
		return
	}
	gen, err := api.Swap(ds, res)
	if err != nil {
		api.NoteReloadFailure(err)
		return
	}
	api.SetProvenance(prov)
	fmt.Fprintf(os.Stderr, "iotserve: snapshot gen %d live (%d devices, source %s)\n",
		gen, res.Summary.Total, prov.Source)
}

// dirMtime returns the dataset directory's modification time (zero on
// error): renames into the directory bump it, which is exactly the atomic
// publish step of the PR-1 hour-file writer.
func dirMtime(dir string) time.Time {
	fi, err := os.Stat(dir)
	if err != nil {
		return time.Time{}
	}
	return fi.ModTime()
}
