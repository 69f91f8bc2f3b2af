// Command m3dserve is the long-running diagnosis service: it builds a
// benchmark configuration, loads the newest valid framework from a
// crash-safe artifact store (training and storing one first if the store
// is empty), and serves failure-log diagnoses over HTTP/JSON with bounded
// admission, per-request deadlines, panic isolation, and graceful
// drain-on-SIGTERM.
//
// Endpoints: POST /diagnose (FAILLOG body, ?multi=1, ?timeout_ms=N),
// GET /healthz, GET /readyz, POST /reload, POST /tune (online fine-tuning
// with A/B shadow validation), GET /tune/status. SIGHUP also triggers a
// reload.
//
// Usage:
//
//	m3dserve -design aes -store ./m3dstore -addr :8080
//	m3dserve -design aes -store ./m3dstore -train-samples 200   # cold store
//	m3dserve -design aes -arch sage-mean -store ./sagestore     # zoo architecture
//	m3dserve -store ./m3dstore -verify-store                    # integrity sweep
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tune"
	"repro/internal/version"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	design := flag.String("design", "aes", "benchmark: aes, tate, netcard, leon3mp")
	config := flag.String("config", "syn1", "configuration to serve")
	scale := flag.Float64("scale", 1.0, "design size multiplier")
	seed := flag.Int64("seed", 1, "global seed")
	storeDir := flag.String("store", "m3dstore", "artifact store directory (crash-safe, checksummed)")
	modelName := flag.String("model", "framework", "artifact name of the served framework")
	trainSamples := flag.Int("train-samples", 200, "training set size when the store holds no framework")
	archName := flag.String("arch", "gcn", "GNN architecture when training a cold store: gcn, sage-mean, sage-max, gat, resgcn; optional widths like sage-mean:64,64 (see gnn.ParseArch)")
	compacted := flag.Bool("compacted", false, "EDT response compaction")
	workers := flag.Int("workers", 0, "training worker goroutines (0 = all cores)")
	concurrency := flag.Int("concurrency", 0, "max concurrent diagnoses (0 = all cores)")
	queue := flag.Int("queue", 64, "max queued requests before load-shedding with 429")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "readiness-flip window before the listener closes, so load balancers see /readyz go 503")
	verifyStore := flag.Bool("verify-store", false, "verify every artifact in the store and exit")
	debugAddr := flag.String("debug-addr", "", "optional second listener with net/http/pprof handlers (e.g. 127.0.0.1:6060); empty disables")
	traceRing := flag.Int("trace-ring", 64, "recent request traces retained for GET /debug/traces")
	quiet := flag.Bool("quiet", false, "suppress the per-request access log (metrics and traces still record)")
	fastATPG := flag.Bool("fast-atpg", false, "short collapsed-list ATPG without top-up, for paper-scale smoke runs")
	adjCache := flag.Int("adj-cache", 0, "cap the normalized-adjacency cache at N operators (0 = auto: 256 for paper-scale designs, pinned per subgraph otherwise)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		version.Print("m3dserve")
		return
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "m3dserve: "+format+"\n", args...)
	}

	// Unknown architecture names are a hard error, not a silent fallback:
	// a typo must never train the wrong model into a cold store.
	arch, err := gnn.ParseArch(*archName)
	if err != nil {
		fatal("-arch: %v", err)
	}

	store, err := artifact.Open(*storeDir)
	if err != nil {
		fatal("%v", err)
	}
	if *verifyStore {
		bad, err := store.VerifyAll()
		if len(bad) > 0 {
			fatal("store verification failed for %d file(s): %v\n%v", len(bad), bad, err)
		}
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("store %s verified clean\n", *storeDir)
		return
	}

	// Interrupt/terminate start the drain; a second signal kills hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p, ok := gen.ProfileByName(*design)
	if !ok {
		fatal("unknown design %q", *design)
	}
	if *scale != 1.0 {
		p = p.Scaled(*scale)
	}
	// Bound the adjacency-operator memoization on paper-scale serving: a
	// stream of mostly-unique 100K+-node request subgraphs would otherwise
	// pin an operator on every one for its lifetime.
	if *adjCache > 0 {
		gnn.LimitAdjCache(*adjCache)
	} else if p.TargetGates >= gen.LargeGateThreshold {
		gnn.LimitAdjCache(256)
	}

	bopt := dataset.BuildOptions{Seed: *seed, Workers: *workers}
	if *fastATPG {
		bopt.ATPG = atpg.Quick()
	}
	logf("building %s/%s ...", *design, *config)
	b, err := dataset.Build(p, dataset.ConfigName(*config), bopt)
	if err != nil {
		fatal("build: %v", err)
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, *traceRing)

	fw, artInfo, err := loadOrTrain(ctx, store, *modelName, b, *trainSamples, *seed, *compacted, *workers, arch, reg, logf)
	if err != nil {
		fatal("%v", err)
	}

	accessLogf := logf
	if *quiet {
		accessLogf = nil
	}
	srv := serve.New(b, fw, serve.Config{
		MaxConcurrent:  *concurrency,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Logf:           logf,
		AccessLogf:     accessLogf,
		Metrics:        reg,
		Tracer:         tracer,
	})
	srv.EnableReload(store, *modelName)
	// /healthz advertises the exact model identity from the first request
	// on; fleet coordinators use it to tell shards apart.
	srv.SetArtifactInfo(artInfo)

	// Online fine-tuning rides on the same store and reload path; the
	// manager observes live diagnoses for its A/B shadow window.
	mgr := tune.NewManager(tune.Config{
		Store: store, Model: *modelName, Server: srv,
		Metrics: reg, Logf: logf, Workers: *workers,
	})
	srv.SetObserver(mgr)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/tune", mgr.Handler())
	mux.Handle("/tune/status", mgr.Handler())

	// Optional pprof listener, kept off the service port so profiling
	// endpoints are never reachable through the load balancer.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logf("debug listener (pprof) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logf("debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		logf("serving %s on %s (concurrency %d, queue %d, timeout %v)",
			b.Name, *addr, *concurrency, *queue, *timeout)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	// SIGHUP hot-reloads the framework from the store.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if v, err := srv.Reload(); err != nil {
				logf("reload failed (still serving the previous framework): %v", err)
			} else {
				logf("reloaded framework v%d on SIGHUP", v)
			}
		}
	}()

	select {
	case err := <-errCh:
		fatal("listen: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: flip readiness first so load balancers stop
	// routing here, give them the grace window, then stop the listener and
	// drain in-flight requests within the drain deadline.
	logf("drain: readiness down, shedding new requests (%d in flight)", srv.Inflight())
	srv.StartDrain()
	time.Sleep(*drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logf("drain deadline exceeded, closing %d in-flight request(s): %v", srv.Inflight(), err)
		httpSrv.Close()
		os.Exit(1)
	}
	logf("drained cleanly")
}

// loadOrTrain loads the newest valid framework from the store, or — when
// the store has none — trains one and seals it into the store so the next
// start is instant. The returned ArtifactInfo identifies the exact payload
// being served (store version + checksum) for /healthz.
func loadOrTrain(ctx context.Context, store *artifact.Store, name string, b *dataset.Bundle,
	trainSamples int, seed int64, compacted bool, workers int, arch gnn.ArchSpec,
	reg *obs.Registry, logf func(string, ...any)) (*core.Framework, serve.ArtifactInfo, error) {

	if payload, path, v, err := store.LoadLatest(name); err == nil {
		fw, err := core.Load(bytes.NewReader(payload))
		if err != nil {
			return nil, serve.ArtifactInfo{}, fmt.Errorf("stored framework %s is invalid: %w", path, err)
		}
		logf("loaded framework %s v%d (T_P=%.3f)", name, v, fw.TP)
		return fw, serve.ArtifactInfo{Model: name, Version: v, Checksum: artifact.ChecksumHex(payload)}, nil
	} else if !errors.Is(err, artifact.ErrNotFound) {
		return nil, serve.ArtifactInfo{}, err
	}

	if trainSamples <= 0 {
		return nil, serve.ArtifactInfo{}, fmt.Errorf("store holds no framework %q and -train-samples is 0", name)
	}
	if err := ctx.Err(); err != nil {
		return nil, serve.ArtifactInfo{}, err
	}
	logf("store holds no framework %q; training on %d samples ...", name, trainSamples)
	train := b.Generate(dataset.SampleOptions{
		Count: trainSamples, Seed: seed + 2, Compacted: compacted,
		MIVFraction: 0.2, Workers: workers, Obs: reg,
	})
	fw, err := core.Train(train, core.TrainOptions{Seed: seed + 3, Workers: workers, Arch: arch, Obs: reg})
	if err != nil {
		return nil, serve.ArtifactInfo{}, fmt.Errorf("train: %w", err)
	}
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		return nil, serve.ArtifactInfo{}, err
	}
	path, v, err := store.Save(name, func(w io.Writer) error { _, err := w.Write(buf.Bytes()); return err })
	if err != nil {
		return nil, serve.ArtifactInfo{}, err
	}
	logf("trained and stored framework v%d at %s (T_P=%.3f)", v, path, fw.TP)
	return fw, serve.ArtifactInfo{Model: name, Version: v, Checksum: artifact.ChecksumHex(buf.Bytes())}, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "m3dserve: "+format+"\n", args...)
	os.Exit(1)
}
