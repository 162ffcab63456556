package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("ext-cache-policies", runExtCachePolicies)
}

// cachePolicyModels are the zoo models the policy sweep co-locates, in
// ascending artifact size. The Zipf split maps popularity rank onto
// this order — the most popular models are the smallest — so the
// cost-aware policy's size term has signal to act on.
var cachePolicyModels = []string{
	"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B", "Qwen1.5-7B", "Yi-6B",
	"Falcon-7B", "Llama2-13B", "Qwen1.5-4B", "Qwen1.5-14B", "Yi-9B",
}

// runExtCachePolicies sweeps the tiered artifact cache's eviction
// policies over one seeded multi-node, multi-model workload: ten Medusa
// deployments share a two-node fleet, request popularity is Zipf, and
// the cache tiers are sized so artifacts contend for space. The table
// compares hit rate, cold-start latency and fleet TTFT per policy.
func runExtCachePolicies(c *Context) (*Report, error) {
	// churn: idle instances die between bursts
	deps, err := c.medusaDeployments(cachePolicyModels, serverless.Scheduler{IdleTimeout: 150 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "ext-cache-policies",
		Title: "Extension: tiered artifact cache eviction policies (2 nodes, 10 models, Zipf popularity)",
		Header: []string{"policy", "hit rate", "ram/ssd/miss", "coalesced",
			"cold start p50(s)", "cold start p99(s)", "TTFT p99(s)", "fetched MB"},
	}
	for _, kind := range artifactcache.PolicyKinds() {
		res, err := runChurnFleet(deps, kind)
		if err != nil {
			return nil, fmt.Errorf("cluster: policy %v: %w", kind, err)
		}
		cs, ttft := fleetSamples(res)
		st := res.Cache
		r.AddRow(kind.String(),
			pct(st.HitRate()),
			fmt.Sprintf("%d/%d/%d", st.RAMHits, st.SSDHits, st.Misses),
			fmt.Sprintf("%d", st.Coalesced),
			secs(cs.P50()), secs(cs.P99()), secs(ttft.P99()),
			fmt.Sprintf("%.1f", float64(st.BytesFetched)/(1<<20)))
	}
	r.AddNote("same seeded trace per policy; popularity rank maps to ascending artifact size, so cost-aware (GDSF) eviction retains the hot small artifacts LRU's recency churns out")
	return r, nil
}

// runChurnFleet serves the cache-policy workload on deps: one seeded
// Poisson trace Zipf-split across the deployments, on a two-node fleet
// whose tiers are tight — SSD holds two small artifacts or one large
// one, so the eviction policy decides which models stay local while the
// Zipf tail streams one-shot artifacts through. ext-template serves the
// same workload. Each call splits a fresh copy of deps, so runs share no
// mutable state.
func runChurnFleet(deps []serverless.Deployment, policy artifactcache.PolicyKind) (*cluster.Result, error) {
	trace, err := workload.Generate(workload.TraceConfig{
		Seed: 41, RPS: 4, Duration: 40 * time.Second,
		MeanOutput: 16, MaxOutput: 32,
	})
	if err != nil {
		return nil, err
	}
	split, err := cluster.ZipfDeployments(deps, trace, 43, 1.2)
	if err != nil {
		return nil, err
	}
	params := artifactcache.DefaultParams()
	params.RAMBytes = 2 << 20
	params.SSDBytes = 6 << 20
	params.Policy = policy
	return cluster.Run(cluster.Config{
		Nodes: 2, GPUsPerNode: 4,
		Cache:          params,
		LocalityWeight: 0.8,
		Seed:           7,
		Deployments:    split,
	})
}
