package serverless

import (
	"sync"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/trace"
)

// Profile is the timing fingerprint one (model, strategy) template
// instance yields: the cold-start duration and stage layout plus the
// per-iteration serving costs every simulated replica shares. The event
// loop builds its own per run; NewProfile exposes the build on its own.
type Profile struct {
	p *profile
}

// NewProfile validates the configuration, fills defaults, cold-starts
// the template instance (or reuses the one cfg.Profiles already holds
// for the same inputs), and returns its timing fingerprint. Any
// validation error is a *ConfigError.
func NewProfile(cfg Config) (*Profile, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p, err := newProfile(cfg)
	if err != nil {
		return nil, err
	}
	return &Profile{p: p}, nil
}

// ProfileCache shares profiles across simulator runs. A profile depends
// only on the model, strategy, TP degree, store, artifact and assumed
// decode context, not on the seed, so runs that agree on those (sweep
// cells, replications, both simulators, fault fallbacks) reuse one
// cold-started template instance instead of each building its own.
// Builds are single-flight per key, and the cache is safe for
// concurrent runs. Entries live as long as the cache: scope one to a
// sweep, because each holds its template instance's captured graphs.
// Deferred-capture profiles are never shared: serving captures graphs
// into their template instance, so that state belongs to one run.
type ProfileCache struct {
	mu    sync.Mutex
	slots map[profileKey]*profileSlot
}

// NewProfileCache returns an empty cache.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{slots: make(map[profileKey]*profileSlot)}
}

// Len reports how many distinct profiles the cache holds.
func (c *ProfileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// profileKey is exactly the set of Config fields buildProfile reads.
// Seed is deliberately absent: it only places the template instance's
// address space, which no measured cost depends on (the seed-invariance
// test pins this).
type profileKey struct {
	model         model.Config
	strategy      engine.Strategy
	tpDegree      int
	store         *storage.Store
	artifact      *medusa.Artifact
	artifactBytes uint64
	preloaded     bool
	avgContext    int
}

type profileSlot struct {
	once  sync.Once
	entry *profileEntry
	err   error
}

// entry returns the shared entry for a defaults-applied cfg, building
// it on first use.
func (c *ProfileCache) entry(cfg Config) (*profileEntry, error) {
	k := profileKey{
		model:         cfg.Model,
		strategy:      cfg.Strategy,
		tpDegree:      cfg.TPDegree,
		store:         cfg.Store,
		artifact:      cfg.Cache.Artifact,
		artifactBytes: cfg.Cache.ArtifactBytes,
		preloaded:     cfg.Cache.ArtifactPreloaded,
		avgContext:    cfg.Workload.AvgContextTokens,
	}
	c.mu.Lock()
	s, ok := c.slots[k]
	if !ok {
		s = &profileSlot{}
		c.slots[k] = s
	}
	c.mu.Unlock()
	s.once.Do(func() { s.entry, s.err = buildProfile(cfg) })
	return s.entry, s.err
}

// profileEntry is the shared part of a profile: the timing fingerprint
// of one (model, strategy) template instance, measured once. The fields
// above mu never change after the build. The engine accessors below it
// memoize into the template instance on first use, so every call takes
// mu: replications running in parallel may share one entry.
type profileEntry struct {
	coldStart time.Duration
	// timeline is the template cold start's observable stage layout;
	// its extent equals coldStart, which is what keeps the per-launch
	// phase attribution drift-free.
	timeline *trace.Timeline
	kvPerTok time.Duration // extra decode time per running sequence (KV reads)
	maxKVTok int
	// Deferred-capture support (§2.4 strawman): graphBatch maps a batch
	// to its capture size and ensure lazily captures on the template
	// instance.
	deferred   bool
	graphBatch func(int) int

	mu      sync.Mutex
	prefill func(int) (time.Duration, error)
	decode  func(int) (time.Duration, error)
	ensure  func(int) (time.Duration, error)
}

// call runs one engine accessor under the entry's lock.
func (e *profileEntry) call(f func(int) (time.Duration, error), n int) (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return f(n)
}

// profile is one run's view of a shared entry. Its maps memoize the
// simulator's call arguments, so the steady-state per-iteration cost is
// a single unlocked map probe. The engine memoizes too, but only after
// re-deriving graph-batch quantization and cache keys per call. Values
// are stable: the engine's one-time lazy loads are absorbed before
// first use (cold start or, for deferred capture, the ensure that
// startIteration always runs before the first decode of a size).
type profile struct {
	*profileEntry
	prefillCache map[int]time.Duration
	stepCache    map[int]time.Duration
	capCost      map[int]time.Duration // deferred capture's one-time cost per graph size
}

// newProfile returns a per-run view of a defaults-applied cfg's profile,
// shared through cfg.Profiles when the strategy allows it.
func newProfile(cfg Config) (*profile, error) {
	var e *profileEntry
	var err error
	if cfg.Profiles == nil || cfg.Strategy.Info().DeferredCapture {
		e, err = buildProfile(cfg)
	} else {
		e, err = cfg.Profiles.entry(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &profile{
		profileEntry: e,
		prefillCache: make(map[int]time.Duration),
		stepCache:    make(map[int]time.Duration),
		capCost:      make(map[int]time.Duration),
	}, nil
}

// buildProfile cold-starts one template instance (or tensor-parallel
// rank group) and wraps its cost accessors.
func buildProfile(cfg Config) (*profileEntry, error) {
	// Per-sequence KV read cost at the assumed context, beyond the
	// engine's capture-calibrated baseline: ctx · hidden · 2 sides ·
	// 2 bytes · layers over HBM bandwidth; sharded TP ranks each read
	// 1/TP of it in parallel.
	m := cfg.Model
	bytesPerSeq := float64(cfg.Workload.AvgContextTokens) * float64(m.Hidden) * 2 * 2 * float64(m.Layers) / float64(cfg.TPDegree)

	if cfg.TPDegree > 1 {
		tp, err := engine.TPColdStart(engine.TPOptions{
			Model:    cfg.Model,
			Degree:   cfg.TPDegree,
			Strategy: cfg.Strategy,
			Store:    cfg.Store,
			Seed:     cfg.Seed ^ 0x7a7a,
		})
		if err != nil {
			return nil, err
		}
		bw := tp.Ranks[0].Process().Device().Config().MemBandwidth
		return &profileEntry{
			coldStart: tp.LoadingDuration,
			timeline:  tpTimeline(tp),
			prefill:   tp.PrefillDuration,
			decode:    tp.DecodeStepDuration,
			kvPerTok:  time.Duration(bytesPerSeq / bw * float64(time.Second)),
			maxKVTok:  tp.KVRecord().NumBlocks * 16,
			// Deferred capture is not modeled for TP instances.
			graphBatch: tp.Ranks[0].GraphBatch,
		}, nil
	}

	inst, err := engine.ColdStart(engine.Options{
		Model:             cfg.Model,
		Strategy:          cfg.Strategy,
		Seed:              cfg.Seed ^ 0x7a7a,
		Store:             cfg.Store,
		Artifact:          cfg.Cache.Artifact,
		ArtifactBytes:     cfg.Cache.ArtifactBytes,
		ArtifactPreloaded: cfg.Cache.ArtifactPreloaded,
	})
	if err != nil {
		return nil, err
	}
	kvPerTok := time.Duration(bytesPerSeq / inst.Process().Device().Config().MemBandwidth * float64(time.Second))
	return &profileEntry{
		coldStart:  inst.LoadingDuration(),
		timeline:   inst.Timeline(),
		prefill:    inst.PrefillDuration,
		decode:     inst.DecodeStepDuration,
		kvPerTok:   kvPerTok,
		maxKVTok:   inst.KVRecord().NumBlocks * 16,
		deferred:   cfg.Strategy.Info().DeferredCapture,
		graphBatch: inst.GraphBatch,
		ensure:     inst.EnsureGraphCaptured,
	}, nil
}

// tpTimeline synthesizes the observable timeline of a tensor-parallel
// cold start: the slowest rank's stage layout with the collective
// bootstrap appended, so the extent equals TPResult.LoadingDuration
// exactly and phase attribution stays drift-free.
func tpTimeline(tp *engine.TPResult) *trace.Timeline {
	slowest := 0
	for i, d := range tp.RankLoading {
		if d > tp.RankLoading[slowest] {
			slowest = i
		}
	}
	tl := &trace.Timeline{}
	for _, st := range tp.Ranks[slowest].Timeline().Stages() {
		tl.Record(st.Name, st.Start, st.End)
	}
	base := tp.RankLoading[slowest]
	tl.Record("tp_sync_setup", base, base+tp.SyncSetup)
	return tl
}

// prefillDur memoizes prefill by exact prompt length.
func (p *profile) prefillDur(tokens int) (time.Duration, error) {
	if d, ok := p.prefillCache[tokens]; ok {
		return d, nil
	}
	d, err := p.call(p.prefill, tokens)
	if err != nil {
		return 0, err
	}
	p.prefillCache[tokens] = d
	return d, nil
}

// captureCost returns the one-time lazy-capture cost an instance pays
// the first time it serves a batch covered by graph size gb.
func (p *profile) captureCost(n int) (int, time.Duration, error) {
	gb := p.graphBatch(n)
	if d, ok := p.capCost[gb]; ok {
		return gb, d, nil
	}
	d, err := p.call(p.ensure, gb)
	if err != nil {
		return 0, 0, err
	}
	p.capCost[gb] = d
	return gb, d, nil
}

// decodeStep is one continuous-batching iteration for n sequences.
func (p *profile) decodeStep(n int) (time.Duration, error) {
	if d, ok := p.stepCache[n]; ok {
		return d, nil
	}
	base, err := p.call(p.decode, n)
	if err != nil {
		return 0, err
	}
	d := base + time.Duration(n)*p.kvPerTok
	p.stepCache[n] = d
	return d, nil
}
