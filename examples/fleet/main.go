// Fleet: fault-tolerant serving across multiple diagnosis shards. Trains
// one small framework, starts three in-process shards all serving clones
// of it, and puts a coordinator in front: consistent-hash routing by
// design name, health probing, circuit breakers, and retry-with-failover.
// Mid-walkthrough one shard is killed and another starts returning 500s —
// diagnoses keep succeeding, and the chaos injector at the end shows the
// deterministic fault schedules the acceptance test is built on.
package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/fleet/chaos"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	// 1. One trained framework, serialized once. Every shard loads a clone
	//    of the same bytes — that identity is what makes failover invisible
	//    in the results: any shard gives the same answer for the same log.
	profile, _ := gen.ProfileByName("aes")
	profile = profile.Scaled(0.2)
	bundle, err := dataset.Build(profile, dataset.Syn1, dataset.BuildOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	train := bundle.Generate(dataset.SampleOptions{Count: 60, Seed: 2, MIVFraction: 0.2})
	fw, err := core.Train(train, core.TrainOptions{Seed: 3})
	if err != nil {
		panic(err)
	}
	var fwBytes bytes.Buffer
	if err := fw.Save(&fwBytes); err != nil {
		panic(err)
	}

	// 2. Three shards, in-process for the example (`m3dserve -store dir`
	//    pointed at one shared artifact store is the real deployment).
	servers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range servers {
		clone, err := core.Load(bytes.NewReader(fwBytes.Bytes()))
		if err != nil {
			panic(err)
		}
		s := serve.New(bundle, clone, serve.Config{})
		s.SetArtifactInfo(serve.ArtifactInfo{Model: "framework", Version: 1, Checksum: "cafe"})
		servers[i] = httptest.NewServer(s.Handler())
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}

	// 3. The coordinator: m3dfleet wraps exactly this in a real listener.
	reg := obs.NewRegistry()
	co, err := fleet.New(fleet.Config{
		Shards:        urls,
		TryTimeout:    5 * time.Second,
		MaxElapsed:    30 * time.Second,
		Breaker:       fleet.BreakerConfig{Threshold: 2, OpenFor: 500 * time.Millisecond},
		ProbeInterval: 100 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		panic(err)
	}
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co.StartProber(ctx)
	co.ProbeAll(ctx)

	// 4. Routing is consistent hashing on the design name: the same design
	//    always lands on the same shard, and the rest of the order is the
	//    failover sequence.
	order := co.Route(bundle.Name)
	fmt.Printf("failover order for %s:\n", bundle.Name)
	for i, u := range order {
		fmt.Printf("  %d. %s\n", i+1, u)
	}

	test := bundle.Generate(dataset.SampleOptions{Count: 1, Seed: 9, MIVFraction: 1.0})
	log := test[0].Log
	rep, err := co.Diagnose(ctx, log, serve.DiagnoseOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("diagnosed via the fleet: tier %d (conf %.2f)\n", rep.PredictedTier, rep.Confidence)

	// 5. Kill the owner. The next diagnosis fails over to the second shard
	//    in the order — same answer, one failover counted.
	for i, u := range urls {
		if u == order[0] {
			servers[i].Close()
		}
	}
	rep2, err := co.Diagnose(ctx, log, serve.DiagnoseOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("owner killed, diagnosed anyway: tier %d (conf %.2f), %d failover(s)\n",
		rep2.PredictedTier, rep2.Confidence,
		reg.Counter("m3d_fleet_failovers_total", "shard", order[0]).Value())

	// 6. The prober notices the corpse and the breaker opens after repeated
	//    failures, so later requests skip the dead shard without paying the
	//    connect timeout. Status is what GET /fleet/status serves.
	co.ProbeAll(ctx)
	for _, st := range co.Status() {
		fmt.Printf("  shard %s: ready=%v breaker=%s\n", st.Name, st.Ready, st.Breaker)
	}

	// 7. The chaos injector that drives the acceptance test: a seeded,
	//    per-shard fault schedule (error bursts, hangs, down windows) that
	//    is a pure function of (seed, shard, request index) — rerun it and
	//    the exact same requests fail, which is what lets the test assert
	//    bitwise-identical campaign reports with and without faults.
	inj := chaos.New(chaos.Config{Seed: 42, Shard: 0, ErrorRate: 0.25, ErrorBurst: 2})
	var plan []int
	for i := 0; i < 40; i++ {
		if inj.ErrorAt(int64(i)) {
			plan = append(plan, i)
		}
	}
	fmt.Printf("chaos schedule (seed 42, shard 0): 500s at request indices %v\n", plan)
}
