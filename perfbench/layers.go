package main

import (
	"runtime"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/serverless"
)

const mib = 1 << 20

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// layerCalls times the public entry points of the codec, the profile
// builder and the engine cold start on a workload's deployments, one
// span per call. gpus is the per-node pool the cluster builds profiles
// for; faulty adds the vanilla fallback profile the cluster builds for
// every artifact deployment under a fault plan.
func layerCalls(tr *tracer, deps []serverless.Deployment, gpus int, faulty bool) (encodedBytes int, err error) {
	seed := int64(9000) // every cold start needs a distinct seed
	for _, dep := range deps {
		dcfg := dep.Config
		art := dcfg.Cache.Artifact
		var enc []byte
		if err := tr.do("medusa.Artifact.Encode", func() error {
			enc, err = art.Encode()
			return err
		}); err != nil {
			return 0, err
		}
		encodedBytes += len(enc)
		if err := tr.do("medusa.Decode", func() error {
			_, err := medusa.Decode(enc)
			return err
		}); err != nil {
			return 0, err
		}

		pcfg := dcfg
		pcfg.NumGPUs = gpus
		pcfg.Cache.ArtifactPreloaded = true
		profiles := []serverless.Config{pcfg}
		if faulty {
			fcfg := pcfg
			fcfg.Strategy, fcfg.Cache = engine.StrategyVLLM, serverless.CacheSpec{}
			profiles = append(profiles, fcfg)
		}
		for _, c := range profiles {
			if err := tr.do("serverless.NewProfile", func() error {
				_, err := serverless.NewProfile(c)
				return err
			}); err != nil {
				return 0, err
			}
		}

		for _, strat := range []engine.Strategy{engine.StrategyMedusa, engine.StrategyVLLM} {
			opts := engine.Options{Model: dcfg.Model, Strategy: strat, Seed: seed, Store: dcfg.Store}
			seed++
			name := "engine.ColdStart:vllm"
			if strat == engine.StrategyMedusa {
				opts.Artifact, opts.ArtifactBytes = art, uint64(len(enc))
				name = "engine.ColdStart:medusa"
			}
			if err := tr.do(name, func() error {
				_, err := engine.ColdStart(opts)
				return err
			}); err != nil {
				return 0, err
			}
		}
	}
	return encodedBytes, nil
}

// setLayerMetrics derives the per-layer metrics the set-up and layer
// spans support.
func setLayerMetrics(tr *tracer, encodedBytes int, ms *metricSet) {
	d, n, allocs := tr.total("engine.RunOffline")
	ms.set("engine.offline.calls", float64(n))
	ms.set("engine.offline.s", d.Seconds())
	ms.set("engine.offline.allocs", float64(allocs))
	d, _, _ = tr.total("engine.BuildFleetTemplates")
	ms.set("engine.templates.s", d.Seconds())
	d, _, _ = tr.total("medusa.Artifact.EncodeDelta")
	ms.set("medusa.encode_delta.s", d.Seconds())
	if d, n, _ := tr.total("medusa.Artifact.Encode"); n > 0 {
		ms.set("medusa.encode.mb_per_s", float64(encodedBytes)/mib/d.Seconds())
	}
	if d, n, _ := tr.total("medusa.Decode"); n > 0 {
		ms.set("medusa.decode.mb_per_s", float64(encodedBytes)/mib/d.Seconds())
	}
	var csAllocs uint64
	csCalls := 0
	for _, strat := range []string{"medusa", "vllm"} {
		d, n, allocs := tr.total("engine.ColdStart:" + strat)
		if n > 0 {
			ms.set("engine.coldstart."+strat+".ms", d.Seconds()*1e3/float64(n))
		}
		csAllocs += allocs
		csCalls += n
	}
	if csCalls > 0 {
		ms.set("engine.coldstart.allocs", float64(csAllocs)/float64(csCalls))
	}
	d, n, _ = tr.total("serverless.NewProfile")
	ms.set("serverless.profile.calls", float64(n))
	ms.set("serverless.profile.s", d.Seconds())
}
