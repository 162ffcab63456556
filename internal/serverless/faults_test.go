package serverless

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/workload"
)

// faultyMedusa is a Medusa config with idle churn (several launches per
// trace) and the given plan attached.
func faultyMedusa(t *testing.T, plan *faults.Plan) Config {
	t.Helper()
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Scheduler.IdleTimeout = 2 * time.Second
	base.Faults = FaultSpec{Plan: plan}
	return base
}

// churnReqs spaces requests past the idle timeout so every one pays a
// fresh cold start (one injector draw sequence per launch).
func churnReqs(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: i, Arrival: time.Duration(i) * 10 * time.Second,
			PromptTokens: 64, OutputTokens: 4,
		}
	}
	return reqs
}

// TestRunDegradesPerSite checks FAILURES.md's wasted-time rule per
// site: a degraded launch costs the failed attempt (the restore_failed
// phase) plus one vanilla cold start, measured from a clean vLLM run.
func TestRunDegradesPerSite(t *testing.T) {
	perLaunch := func(cfg Config) time.Duration {
		t.Helper()
		res, err := Run(cfg, churnReqs(3))
		if err != nil {
			t.Fatal(err)
		}
		return res.ColdStartTotal / time.Duration(res.ColdStarts)
	}
	cleanMedusa := faultyMedusa(t, nil)
	vanilla := cleanMedusa
	vanilla.Strategy = engine.StrategyVLLM
	vanilla.Cache = CacheSpec{}
	medusaLaunch, vanillaLaunch := perLaunch(cleanMedusa), perLaunch(vanilla)
	for _, tc := range []struct {
		name   string
		plan   faults.Plan
		reason string
	}{
		{"corrupt", faults.Plan{ArtifactCorrupt: faults.SiteSpec{Every: 1}}, faults.ReasonCorruptArtifact},
		{"mismatch", faults.Plan{RestoreMismatch: faults.SiteSpec{Every: 1}}, faults.ReasonRestoreMismatch},
		{"ssd read", faults.Plan{SSDRead: faults.SiteSpec{Every: 1}}, faults.ReasonSSDReadFailed},
	} {
		plan := tc.plan
		cfg := faultyMedusa(t, &plan)
		reqs := churnReqs(3)
		res, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: injected fault must degrade, not abort: %v", tc.name, err)
		}
		if res.Completed != len(reqs) {
			t.Fatalf("%s: completed %d of %d", tc.name, res.Completed, len(reqs))
		}
		if res.Degraded != res.ColdStarts || res.Degraded == 0 {
			t.Fatalf("%s: degraded %d of %d launches, want all", tc.name, res.Degraded, res.ColdStarts)
		}
		if got := int(res.Metrics.Counter("degraded_" + tc.reason).Value()); got != res.Degraded {
			t.Fatalf("%s: degraded_%s = %d, want %d", tc.name, tc.reason, got, res.Degraded)
		}
		wasted := res.ColdStartPhases.Duration(engine.StageRestoreFailed)
		if wasted <= 0 {
			t.Fatalf("%s: no restore_failed time charged", tc.name)
		}
		if want := wasted + time.Duration(res.Degraded)*vanillaLaunch; res.ColdStartTotal != want {
			t.Fatalf("%s: cold-start total %v, want restore_failed %v + %d × vanilla %v = %v",
				tc.name, res.ColdStartTotal, wasted, res.Degraded, vanillaLaunch, want)
		}
		// A mismatch is caught only after the whole restore ran: each
		// launch wastes exactly one clean Medusa cold start.
		if tc.reason == faults.ReasonRestoreMismatch {
			if got := wasted / time.Duration(res.Degraded); got != medusaLaunch {
				t.Fatalf("%s: restore_failed per launch %v, want the clean Medusa cold start %v",
					tc.name, got, medusaLaunch)
			}
		}
		// The degraded launch pays the failed attempt plus a vanilla cold
		// start, so its TTFT exceeds the clean Medusa launch's.
		clean := cfg
		clean.Faults = FaultSpec{}
		cres, err := Run(clean, churnReqs(3))
		if err != nil {
			t.Fatal(err)
		}
		if res.TTFT.Max() <= cres.TTFT.Max() {
			t.Fatalf("%s: degraded TTFT %v not above clean %v", tc.name, res.TTFT.Max(), cres.TTFT.Max())
		}
	}
}

func TestRunTransientReadRetryRecovers(t *testing.T) {
	// Every=2 fires on draws 2, 4, ...: each launch's first read attempt
	// alternates clean/failed across launches, and no launch exhausts the
	// 4-attempt budget, so nothing degrades — launches just arrive late.
	cfg := faultyMedusa(t, &faults.Plan{SSDRead: faults.SiteSpec{Every: 2}})
	reqs := churnReqs(4)
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Completed, len(reqs))
	}
	if res.Degraded != 0 {
		t.Fatalf("transient errors degraded %d launches", res.Degraded)
	}
	if got := res.Metrics.Counter("fetch_retries").Value(); got == 0 {
		t.Fatal("no retries recorded for transient read errors")
	}
}

func TestRunEmptyPlanBitIdentical(t *testing.T) {
	run := func(plan *faults.Plan) string {
		cfg := faultyMedusa(t, plan)
		res, err := Run(cfg, churnReqs(3))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Render()
	}
	if a, b := run(nil), run(&faults.Plan{}); a != b {
		t.Fatalf("zero plan changed the metrics rendering:\n--- nil\n%s\n--- zero\n%s", a, b)
	}
}

func TestRunFaultsDeterministic(t *testing.T) {
	plan := &faults.Plan{
		Seed:            5,
		ArtifactCorrupt: faults.SiteSpec{Probability: 0.3},
		SSDRead:         faults.SiteSpec{Probability: 0.3},
		RestoreMismatch: faults.SiteSpec{Probability: 0.3},
	}
	run := func() string {
		cfg := faultyMedusa(t, plan)
		res, err := Run(cfg, churnReqs(6))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Render()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fault-injected runs diverge:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
}

// TestRunMultiIgnoresClusterOnlyFaults pins the FaultSpec contract: the
// single pool has no nodes and no artifact registry, so node crashes
// and registry timeouts in a plan change nothing about its run.
func TestRunMultiIgnoresClusterOnlyFaults(t *testing.T) {
	base := faults.Plan{
		Seed:            3,
		ArtifactCorrupt: faults.SiteSpec{Probability: 0.3},
		SSDRead:         faults.SiteSpec{Probability: 0.3},
		RestoreMismatch: faults.SiteSpec{Probability: 0.2},
	}
	withCluster := base
	withCluster.NodeCrashes = []faults.NodeCrash{{Node: 0, At: faults.Duration(5 * time.Second)}}
	withCluster.RegistryTimeout = faults.SiteSpec{Probability: 0.5}
	render := func(plan faults.Plan) string {
		cfg := faultyMedusa(t, nil)
		res, err := RunMulti(MultiConfig{
			NumGPUs:     2,
			Deployments: []Deployment{{Name: "medusa", Config: cfg, Requests: churnReqs(6)}},
			Faults:      FaultSpec{Plan: &plan},
		})
		if err != nil {
			t.Fatal(err)
		}
		d := res.PerDeployment[0]
		return fmt.Sprintf("%scompleted %d cold_starts %d degraded %d ttft p99 %v gpu_seconds %.6f makespan %v\n",
			d.Metrics.Render(), d.Completed, d.ColdStarts, d.Degraded, d.TTFT.P99(),
			res.GPUSeconds, res.Makespan)
	}
	want, got := render(base), render(withCluster)
	if got != want {
		t.Fatalf("cluster-only faults changed the pool run:\n--- base plan\n%s--- with crashes and timeouts\n%s", want, got)
	}
	if !strings.Contains(want, "degraded") {
		t.Fatalf("the base plan degraded nothing, so the comparison is vacuous:\n%s", want)
	}
}
