package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
	"github.com/medusa-repro/medusa/internal/workload"
)

// offlineSeed pins the offline phase: artifacts are the deployment,
// not the traffic, so they do not vary with the workload seed.
const offlineSeed = 500

// fleetWorkload is one open-loop cluster.Run workload. Arrivals come on
// a seeded virtual-time schedule; the host runs the whole trace as a
// batch job.
type fleetWorkload struct {
	name   string
	models []string
	// templates factors the artifacts into per-family templates plus
	// per-model deltas (wire format v3) and fetches deltas.
	templates bool
	// deployment fills the per-deployment serving policy.
	deployment func(cfg *serverless.Config)
	// arrivals builds the pass's traffic from the workload seed, with
	// every source wrapped by wrap so the benchmark counts arrivals.
	arrivals func(seed int64, n int, wrap func(workload.Source) workload.Source) (serverless.ArrivalSource, error)
	// cluster fills the fleet-wide configuration; it is called once per
	// pass because policies carry per-run state.
	cluster func(cfg *cluster.Config) error
	// maxDrain bounds the virtual time between the last arrival and the
	// last completion: a fleet that keeps up drains in a few request
	// lifetimes, a growing backlog takes far longer.
	maxDrain time.Duration
}

// fleetStream loads the event loop: four Medusa deployments behind a
// streamed Poisson trace split by Zipf popularity, unbatched, reactive
// autoscaling, launch-order dispatch, no faults. 1500 RPS is below the
// fleet's saturation point: there p99 TTFT is 0.15 s and the fleet
// drains 0.2 s after the last arrival. At 2000 RPS p99 TTFT reaches
// 9.0 s with 6.8 s of drain, and at 2800 RPS 331 s with 104 s of drain,
// a backlog that grows for the whole trace.
var fleetStream = &fleetWorkload{
	name:   "fleet-stream",
	models: []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B", "Qwen1.5-7B"},
	deployment: func(cfg *serverless.Config) {
		cfg.Scheduler.IdleTimeout = 500 * time.Millisecond
	},
	arrivals: func(seed int64, n int, wrap func(workload.Source) workload.Source) (serverless.ArrivalSource, error) {
		src, err := workload.NewPoisson(workload.TraceConfig{
			Seed: derive(seed, 1), RPS: 1500, Duration: 720 * time.Second,
			MeanOutput: 8, MaxOutput: 16,
		})
		if err != nil {
			return nil, err
		}
		return cluster.ZipfArrivals(wrap(src), n, derive(seed, 2), 1.2)
	},
	cluster: func(cfg *cluster.Config) error {
		cfg.Nodes, cfg.GPUsPerNode = 4, 8
		return nil
	},
	maxDrain: 5 * time.Second,
}

// fleetBatched loads the layers only a batched, faulty, template-
// sharing fleet uses: six deployments across the three architecture
// families with v3 templates and delta fetch over cache-starved tiers,
// diurnal multi-tenant traffic with conversational follow-ups, batched
// execution with a KV pool tight enough to preempt, predictive
// autoscaling with score routing under a TTFT/TPOT SLO, and the mild
// fault preset.
var fleetBatched = &fleetWorkload{
	name: "fleet-batched",
	models: []string{"Qwen1.5-0.5B", "Falcon-7B", "Qwen1.5-1.8B", "Qwen1.5-4B",
		"Llama2-7B", "Yi-6B"},
	templates: true,
	deployment: func(cfg *serverless.Config) {
		cfg.Scheduler = serverless.Scheduler{
			InstanceTarget: 4,
			IdleTimeout:    2 * time.Second,
			Batch:          sched.Params{BatchTokens: 512, KVBlocks: 96, ChunkedPrefill: true},
		}
		cfg.Workload.FollowUp = &serverless.FollowUpModel{
			Probability: 0.2, ThinkTime: 2 * time.Second, MaxTurns: 3, NewTokens: 32,
		}
	},
	arrivals: func(seed int64, n int, wrap func(workload.Source) workload.Source) (serverless.ArrivalSource, error) {
		srcs, err := workload.DiurnalFleet(workload.DiurnalConfig{
			Seed: derive(seed, 3), BaseRPS: 250, Amplitude: 0.6, Period: 120 * time.Second,
			BurstFactor: 1.5, MeanBurst: 5 * time.Second, MeanCalm: 20 * time.Second,
			Duration:  600 * time.Second,
			MaxPrompt: 512, MeanOutput: 16, MaxOutput: 32,
		}, n, 1.2)
		if err != nil {
			return nil, err
		}
		for i := range srcs {
			srcs[i] = wrap(srcs[i])
		}
		return serverless.MergeArrivals(srcs), nil
	},
	cluster: func(cfg *cluster.Config) error {
		scaler, err := autoscale.NewPredictive(autoscale.PredictiveConfig{Window: 2 * time.Second})
		if err != nil {
			return err
		}
		route, err := router.Parse("score")
		if err != nil {
			return err
		}
		plan := faults.Presets()["mild"]
		cfg.Nodes, cfg.GPUsPerNode = 4, 8
		cfg.Cache = artifactcache.Params{
			RAMBytes: 512 << 10,
			RAM:      storage.Array{Bandwidth: 80e9, Latency: 2 * time.Microsecond},
		}
		cfg.Network = storage.Array{Bandwidth: 20e6, Latency: 10 * time.Millisecond}
		cfg.LocalityWeight = 2
		cfg.Autoscaler, cfg.Router = scaler, route
		cfg.SLO = serverless.SLO{TTFT: time.Second, TPOT: 250 * time.Millisecond}
		cfg.Faults = serverless.FaultSpec{Plan: &plan}
		return nil
	},
	maxDrain: 30 * time.Second,
}

// derive gives the k-th sub-seed of the workload seed (splitmix64), so
// the trace, the popularity split and the simulation draw from
// independent streams.
func derive(seed int64, k uint64) int64 {
	z := uint64(seed) + k*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// fleetState is what set-up produces: artifacts (or template+delta
// pairs) in a fresh store and the deployments' serving configs.
type fleetState struct {
	w     *fleetWorkload
	seed  int64
	store *storage.Store
	deps  []serverless.Deployment
}

func (w *fleetWorkload) setup(seed int64, tr *tracer) (*fleetState, error) {
	st := &fleetState{w: w, seed: seed, store: storage.NewStore(storage.DefaultArray())}
	cfgs := make([]model.Config, len(w.models))
	arts := make([]*medusa.Artifact, len(w.models))
	sizes := make([]uint64, len(w.models))
	for i, name := range w.models {
		cfg, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
		err = tr.do("engine.RunOffline", func() error {
			art, rep, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Store: st.store, Seed: offlineSeed})
			if err != nil {
				return err
			}
			arts[i], sizes[i] = art, rep.ArtifactBytes
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("offline %s: %w", name, err)
		}
	}
	specs := make([]serverless.CacheSpec, len(cfgs))
	for i := range cfgs {
		specs[i] = serverless.CacheSpec{Artifact: arts[i], ArtifactBytes: sizes[i]}
	}
	if w.templates {
		var tmpls map[model.Family]*medusa.Template
		err := tr.do("engine.BuildFleetTemplates", func() error {
			var err error
			tmpls, err = engine.BuildFleetTemplates(st.store, vclock.New(), cfgs, arts)
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, cfg := range cfgs {
			t := tmpls[cfg.Family]
			err := tr.do("medusa.Artifact.EncodeDelta", func() error {
				delta, err := arts[i].EncodeDelta(t)
				specs[i].Template, specs[i].ArtifactBytes = t, uint64(len(delta))
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("delta %s: %w", cfg.Name, err)
			}
		}
	}
	for i, cfg := range cfgs {
		dcfg := serverless.Config{
			Model: cfg, Strategy: engine.StrategyMedusa, Store: st.store,
			Cache: specs[i], Seed: derive(seed, 10+uint64(i)),
		}
		w.deployment(&dcfg)
		st.deps = append(st.deps, serverless.Deployment{Name: cfg.Name, Config: dcfg})
	}
	return st, nil
}

// fleetPass is one cluster.Run over the whole trace.
type fleetPass struct {
	res      *cluster.Result
	arrivals arrivalStats
}

func (st *fleetState) pass(tr *tracer) (*fleetPass, error) {
	p := &fleetPass{arrivals: arrivalStats{timed: tr != nil}}
	wrap := func(src workload.Source) workload.Source { return countingSource{src, &p.arrivals} }
	arr, err := st.w.arrivals(st.seed, len(st.deps), wrap)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{Seed: derive(st.seed, 4), Deployments: st.deps, Arrivals: arr}
	if err := st.w.cluster(&cfg); err != nil {
		return nil, err
	}
	err = tr.do("cluster.Run", func() error {
		p.res, err = cluster.Run(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, arr.Err()
}

// followUps sums the follow-up turns the Result reports.
func followUps(res *cluster.Result) int {
	n := 0
	for _, d := range res.PerDeployment {
		n += counterValue(d.Metrics, "follow_ups")
	}
	return n
}

// counterValue reads a registry counter without registering it, so
// reading a result leaves its rendering unchanged.
func counterValue(reg *obs.Registry, name string) int {
	for _, n := range reg.CounterNames() {
		if n == name {
			return int(reg.Counter(name).Value())
		}
	}
	return 0
}

// check verifies the pass's conservation laws and the backlog guard.
func (st *fleetState) check(p *fleetPass) []string {
	res := p.res
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	attempted := p.arrivals.n + followUps(res)
	completed := 0
	for _, d := range res.PerDeployment {
		completed += d.Completed
	}
	if completed != res.Completed {
		fail("per-deployment completions %d != fleet completions %d", completed, res.Completed)
	}
	if attempted != res.Completed {
		fail("arrivals %d + follow-ups %d != completed %d: %d requests never completed",
			p.arrivals.n, followUps(res), res.Completed, attempted-res.Completed)
	}
	// The fleet's cache totals must equal the per-node sums, and the
	// registry's event-time counters must agree with both.
	var nodes artifactcache.Stats
	for _, n := range res.PerNode {
		nodes.Add(n.Cache)
	}
	c := res.Cache
	if nodes != c {
		fail("fleet cache stats %+v != per-node sum %+v", c, nodes)
	}
	for _, k := range []struct {
		counter string
		stat    int
	}{
		{"cache_ram_hits", c.RAMHits}, {"cache_ssd_hits", c.SSDHits}, {"cache_misses", c.Misses},
		{"cache_coalesced", c.Coalesced}, {"cache_fetch_timed_out", c.TimedOut},
	} {
		if v := counterValue(res.Metrics, k.counter); v != k.stat {
			fail("registry %s = %d, cache stats say %d", k.counter, v, k.stat)
		}
	}
	if res.SLOMet > res.Completed {
		fail("SLO met %d > completed %d", res.SLOMet, res.Completed)
	}
	launches := 0
	for _, n := range res.PerNode {
		launches += n.Launches
	}
	if launches != res.TotalColdStarts {
		fail("per-node launches %d != total cold starts %d", launches, res.TotalColdStarts)
	}
	if drain := res.Makespan - p.arrivals.last; drain > st.w.maxDrain {
		fail("backlog: last completion %v after the last arrival (limit %v); the rate is above what the fleet sustains",
			drain, st.w.maxDrain)
	}
	return errs
}

// virtualMetrics are the modelled fleet's results, in virtual time.
type virtualMetrics struct {
	ttftP50, ttftP99, tpotP99, coldStartP50 time.Duration
	sloAttainment, nodeSeconds              float64
	drain                                   time.Duration
}

func (p *fleetPass) virtual() virtualMetrics {
	ttft, tpot, cold := &metrics.Sample{}, &metrics.Sample{}, &metrics.Sample{}
	for _, d := range p.res.PerDeployment {
		ttft.AddAll(d.TTFT)
		cold.AddAll(d.ColdStart)
		if d.TPOT != nil {
			tpot.AddAll(d.TPOT)
		}
	}
	q := func(s *metrics.Sample, p float64) time.Duration {
		v, _ := s.Quantile(p)
		return v
	}
	return virtualMetrics{
		ttftP50: q(ttft, 0.5), ttftP99: q(ttft, 0.99), tpotP99: q(tpot, 0.99),
		coldStartP50:  q(cold, 0.5),
		sloAttainment: p.res.SLOAttainment(), nodeSeconds: p.res.NodeSeconds,
		drain: p.res.Makespan - p.arrivals.last,
	}
}

// phaseTotals sums each cold-start stage's exclusive virtual time over
// every deployment.
func phaseTotals(res *cluster.Result) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, d := range res.PerDeployment {
		for _, ph := range d.ColdStartPhases.Phases() {
			out[ph] += d.ColdStartPhases.Duration(ph)
		}
	}
	return out
}

// launchSpread is the ratio of the busiest node's launches to the
// idlest's (0 when some node launched nothing).
func launchSpread(res *cluster.Result) float64 {
	l := make([]int, len(res.PerNode))
	for i, n := range res.PerNode {
		l[i] = n.Launches
	}
	sort.Ints(l)
	if len(l) == 0 || l[0] == 0 {
		return 0
	}
	return float64(l[len(l)-1]) / float64(l[0])
}
