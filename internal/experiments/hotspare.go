package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("ext-hotspare", runHotSpare)
}

// hotSpareModels are three differently-sized models co-located on the
// 4-GPU cluster — the "diversity of model types" of §2.4.
var hotSpareModels = []string{"Qwen1.5-0.5B", "Qwen1.5-4B", "Llama2-7B"}

// runHotSpare quantifies §2.4's economics argument: keeping a hot spare
// per model type buys low tails at the price of permanently provisioned
// GPUs; scaling to zero reclaims the GPUs but puts cold starts on the
// request path — which is exactly the latency Medusa shrinks.
func runHotSpare(c *Context) (*Report, error) {
	r := &Report{
		ID:    "ext-hotspare",
		Title: "Extension: hot spares vs scale-to-zero on a shared 4-GPU cluster (3 models)",
		Header: []string{"policy", "model", "p99 TTFT (s)", "cold starts",
			"cluster GPU-seconds"},
	}
	const (
		duration = 20 * time.Minute
		rps      = 0.02 // one request every ~50s per model: the hot-spare worst case
	)
	type policy struct {
		name     string
		strategy engine.Strategy
		prewarm  int
		idle     time.Duration
	}
	policies := []policy{
		{"HOT SPARES (vLLM)", engine.StrategyVLLM, 1, 0},
		{"SCALE-TO-ZERO (vLLM)", engine.StrategyVLLM, 0, 15 * time.Second},
		{"SCALE-TO-ZERO (MEDUSA)", engine.StrategyMedusa, 0, 15 * time.Second},
	}
	for _, pol := range policies {
		mc := serverless.MultiConfig{NumGPUs: 4}
		for mi, name := range hotSpareModels {
			cfg, err := model.ByName(name)
			if err != nil {
				return nil, err
			}
			reqs, err := workload.Generate(workload.TraceConfig{
				Seed: int64(31 + mi), RPS: rps, Duration: duration,
			})
			if err != nil {
				return nil, err
			}
			dcfg := serverless.Config{
				Model:    cfg,
				Strategy: pol.strategy,
				Store:    c.Store,
				Scheduler: serverless.Scheduler{
					Prewarm:        pol.prewarm,
					IdleTimeout:    pol.idle,
					InstanceTarget: 64,
				},
				Seed:     c.NextSeed(),
				Profiles: c.profileCache(),
			}
			if pol.strategy.NeedsArtifact() {
				art, size, _, err := c.Artifact(cfg)
				if err != nil {
					return nil, err
				}
				dcfg.Cache = serverless.CacheSpec{Artifact: art, ArtifactBytes: size}
			}
			mc.Deployments = append(mc.Deployments, serverless.Deployment{
				Name: name, Config: dcfg, Requests: reqs,
			})
		}
		res, err := serverless.RunMulti(mc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pol.name, err)
		}
		for mi, name := range hotSpareModels {
			dep := res.PerDeployment[mi]
			gpuCell := ""
			if mi == 0 {
				gpuCell = fmt.Sprintf("%.0f", res.GPUSeconds)
			}
			r.AddRow(pol.name, name, secs(dep.TTFT.P99()),
				fmt.Sprintf("%d", dep.ColdStarts), gpuCell)
		}
	}
	r.AddNote("hot spares pin one instance per model for the whole run (GPU-seconds ≈ 3 models × %v); scale-to-zero reclaims them but exposes cold starts — Medusa halves that exposure (§2.4)", duration)
	return r, nil
}
