package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/replicate"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// ArtifactKey is the store object name of a model's artifact.
func ArtifactKey(modelName string) string { return "medusa/artifacts/" + modelName }

// TemplateKey is the store/registry object name of an architecture
// family's shared template — the template's ID, by convention.
func TemplateKey(fam model.Family) string { return "medusa/templates/" + string(fam) }

// OfflineOptions configures Medusa's offline phase.
type OfflineOptions struct {
	// Model selects the model to materialize.
	Model model.Config
	// Store receives the encoded artifact.
	Store *storage.Store
	// Runtime is the installed kernel environment (nil: standard set).
	Runtime *cuda.Runtime
	// Seed randomizes the offline process.
	Seed int64
	// Clock accumulates the offline phase's duration (Figure 9).
	Clock *vclock.Clock
	// CaptureSizes overrides the batch sizes (default: vLLM's 35).
	CaptureSizes []int
	// SkipValidation disables the validation forwarding loop (used by
	// ablations; cost-only models skip output comparison regardless).
	SkipValidation bool
	// NaiveFirstMatch switches the analysis to the forward first-match
	// strawman (§4.1 ablation).
	NaiveFirstMatch bool
	// LinearMatch forces the O(events) linear trace walkers instead of
	// the interval index — the reference implementation, kept for the
	// wall-clock ablation benchmarks.
	LinearMatch bool
	// Parallelism caps the worker pools of the analysis stage and the
	// validation forwarding (0 = GOMAXPROCS). The encoded artifact and
	// the vclock timings are identical for any value: parallelism only
	// changes wall-clock cost.
	Parallelism int
	// Tracer, when set, receives one span per offline-phase stage
	// (capturing, analysis, validation, persistence) on the
	// "offline/<model>" track, timed on Clock.
	Tracer *obs.Tracer
}

// OfflineReport describes one offline run — the quantities Figure 9
// plots.
type OfflineReport struct {
	// CaptureStageDuration covers the instrumented cold start that
	// records the trace and captures the graphs.
	CaptureStageDuration time.Duration
	// AnalysisDuration covers indirect-index analysis, classification,
	// validation, and artifact encoding.
	AnalysisDuration time.Duration
	// TotalNodes is the node count across all materialized graphs.
	TotalNodes int
	// ArtifactBytes is the encoded artifact size.
	ArtifactBytes uint64
	// Correction reports the validation/correction outcome.
	Correction medusa.CorrectionResult
	// IndirectPointerWarnings counts suspected pointers stored inside
	// referenced buffers (the §8 out-of-scope case; expected 0).
	IndirectPointerWarnings int
	// ArtifactKey is where the artifact was stored.
	ArtifactKey string
}

// Total is the end-to-end offline phase duration.
func (r *OfflineReport) Total() time.Duration {
	return r.CaptureStageDuration + r.AnalysisDuration
}

// RunOffline executes Medusa's offline phase for one model: an
// instrumented cold start (capturing stage), trace analysis, validation
// forwarding with false-positive correction, and artifact persistence.
// It returns the decoded artifact ready for online use.
func RunOffline(opts OfflineOptions) (*medusa.Artifact, *OfflineReport, error) {
	if opts.Clock == nil {
		opts.Clock = vclock.New()
	}
	if opts.Store == nil {
		opts.Store = storage.NewStore(storage.DefaultArray())
	}
	rec := medusa.NewRecorder()
	inst, err := ColdStart(Options{
		Model:        opts.Model,
		Strategy:     StrategyVLLM,
		Seed:         opts.Seed,
		Store:        opts.Store,
		Runtime:      opts.Runtime,
		CaptureSizes: opts.CaptureSizes,
		Recorder:     rec,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("engine: offline capturing stage: %w", err)
	}
	report := &OfflineReport{}
	offTrack := "offline/" + opts.Model.Name
	offRoot := opts.Tracer.StartSpan(offTrack, "offline_phase", opts.Clock.Now()).
		Tag("offline_phase").Attr("model", opts.Model.Name)
	loading := inst.LoadingDuration()
	// The instrumented run pays interception/tracing overhead on top of
	// a plain cold start, plus fixed tooling cost (Figure 9's roughly
	// constant capturing stage).
	report.CaptureStageDuration = offlineCaptureFixed +
		time.Duration(float64(loading)*offlineCaptureFactor)
	capSpan := offRoot.Child("capturing_stage", opts.Clock.Now()).Tag("capturing_stage")
	opts.Clock.Advance(report.CaptureStageDuration)
	capSpan.End(opts.Clock.Now())

	anSpan := offRoot.Child("analysis", opts.Clock.Now()).Tag("analysis")
	analysisWatch := opts.Clock.StartWatch()
	art, err := medusa.Analyze(rec, inst.Process(), medusa.AnalyzeOptions{
		ModelName:       opts.Model.Name,
		NaiveFirstMatch: opts.NaiveFirstMatch,
		SkipContents:    !opts.Model.Functional,
		LinearMatch:     opts.LinearMatch,
		Parallelism:     opts.Parallelism,
	})
	if err != nil {
		anSpan.End(opts.Clock.Now())
		offRoot.End(opts.Clock.Now())
		return nil, nil, fmt.Errorf("engine: analysis stage: %w", err)
	}
	report.TotalNodes = art.TotalNodes()
	opts.Clock.Advance(time.Duration(report.TotalNodes) * analysisPerNode)
	anSpan.AttrInt("nodes", int64(report.TotalNodes)).End(opts.Clock.Now())

	if opts.Model.Functional && !opts.SkipValidation {
		// §8 guard: referenced buffers must not themselves store device
		// pointers, or restoration would leave them stale.
		warnings, err := medusa.ScanIndirectPointers(rec, inst.Process(), art)
		if err != nil {
			offRoot.End(opts.Clock.Now())
			return nil, nil, err
		}
		report.IndirectPointerWarnings = len(warnings)

		correction, err := validateArtifact(inst, art, opts)
		if err != nil {
			offRoot.End(opts.Clock.Now())
			return nil, nil, err
		}
		report.Correction = correction
	}

	encoded, err := art.Encode()
	if err != nil {
		offRoot.End(opts.Clock.Now())
		return nil, nil, err
	}
	report.ArtifactBytes = uint64(len(encoded))
	report.ArtifactKey = ArtifactKey(opts.Model.Name)
	perSpan := offRoot.Child("persist", opts.Clock.Now()).Tag("persist").
		AttrBytes("bytes", report.ArtifactBytes)
	opts.Store.Put(opts.Clock, report.ArtifactKey, encoded)
	perSpan.End(opts.Clock.Now())
	report.AnalysisDuration = analysisWatch.Elapsed()
	offRoot.End(opts.Clock.Now())
	return art, report, nil
}

// validateArtifact runs the paper's validation forwarding: reference
// outputs come from the offline instance's original graphs; the
// speculative artifact is restored into fresh processes (new seeds, new
// address space) and must reproduce them bit-for-bit. Mismatches drive
// the correction search.
//
// The work parallelizes on two axes. Reference forwards run on the
// offline instance's single process (a cuda.Process is not safe for
// concurrent use) but concurrently with the first round's speculative
// cold starts; workers block on refsReady before comparing. Within each
// validation round the batch sizes shard across workers, each restoring
// the artifact into its own fresh process with a deterministically
// derived seed. Every forward's output is a pure function of (batch,
// step) — that is the premise of validation forwarding itself — so
// sharding cannot change the mismatch set; merging it in sorted batch
// order keeps ValidateAndCorrect's correction search deterministic.
func validateArtifact(offline *Instance, art *medusa.Artifact, opts OfflineOptions) (medusa.CorrectionResult, error) {
	const validationStep = 7
	batches := art.Batches()
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batches) {
		workers = len(batches)
	}
	if workers < 1 {
		workers = 1
	}

	refs := make(map[int][]byte, len(batches))
	var refsErr error
	refsReady := make(chan struct{})
	go func() {
		defer close(refsReady)
		for _, b := range batches {
			out, err := offline.RunValidationForward(b, validationStep)
			if err != nil {
				refsErr = fmt.Errorf("engine: reference forwarding (batch %d): %w", b, err)
				return
			}
			refs[b] = out
		}
	}()

	round := int64(0)
	validate := func(a *medusa.Artifact) ([]int, error) {
		round++
		type shardResult struct {
			mismatched []int
			err        error
		}
		// Job wi validates every workers-th batch from wi. A shard's
		// error rides in its shardResult, so Run cannot fail.
		results, _ := replicate.Run(workers, workers, func(wi int) (res shardResult, _ error) {
			fresh, err := ColdStart(Options{
				Model:        opts.Model,
				Strategy:     StrategyMedusa,
				Seed:         (opts.Seed + round*int64(workers) + int64(wi)) ^ 0x5a5a5a,
				Store:        opts.Store,
				Runtime:      opts.Runtime,
				CaptureSizes: opts.CaptureSizes,
				Artifact:     a,
			})
			if err != nil {
				res.err = err
				return res, nil
			}
			<-refsReady
			if refsErr != nil {
				return res, nil // surfaced below
			}
			for bi := wi; bi < len(batches); bi += workers {
				b := batches[bi]
				out, err := fresh.RunValidationForward(b, validationStep)
				if err != nil {
					res.err = err
					return res, nil
				}
				if !bytes.Equal(out, refs[b]) {
					res.mismatched = append(res.mismatched, b)
				}
			}
			return res, nil
		})
		<-refsReady
		if refsErr != nil {
			return nil, refsErr
		}
		var mismatched []int
		for _, r := range results {
			if r.err != nil {
				return nil, r.err
			}
			mismatched = append(mismatched, r.mismatched...)
		}
		sort.Ints(mismatched)
		return mismatched, nil
	}
	res, err := art.ValidateAndCorrect(validate)
	if err != nil {
		return res, fmt.Errorf("engine: validation: %w", err)
	}
	return res, nil
}

// LoadArtifact reads and decodes a model's artifact from the store,
// charging read time on the clock.
func LoadArtifact(store *storage.Store, clock *vclock.Clock, modelName string) (*medusa.Artifact, uint64, error) {
	raw, err := store.Get(clock, ArtifactKey(modelName))
	if err != nil {
		return nil, 0, err
	}
	art, err := medusa.Decode(raw)
	if err != nil {
		return nil, 0, err
	}
	return art, uint64(len(raw)), nil
}

// BuildFleetTemplates factors a fleet's artifacts into shared
// per-architecture templates: one template per model family present,
// derived from the family's reference artifact (the lexicographically
// smallest model name, so the choice is independent of input order)
// and stored under TemplateKey. Returns the templates by family.
// Callers then re-encode each artifact with EncodeDelta against its
// family's template and publish the deltas.
func BuildFleetTemplates(store *storage.Store, clock *vclock.Clock, models []model.Config, arts []*medusa.Artifact) (map[model.Family]*medusa.Template, error) {
	if len(models) != len(arts) {
		return nil, fmt.Errorf("engine: %d models but %d artifacts", len(models), len(arts))
	}
	ref := make(map[model.Family]int)
	for i, m := range models {
		if arts[i] == nil {
			return nil, fmt.Errorf("engine: model %s has no artifact", m.Name)
		}
		if j, ok := ref[m.Family]; !ok || m.Name < models[j].Name {
			ref[m.Family] = i
		}
	}
	fams := make([]model.Family, 0, len(ref))
	for fam := range ref {
		fams = append(fams, fam)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
	out := make(map[model.Family]*medusa.Template, len(fams))
	for _, fam := range fams {
		tmpl, err := medusa.BuildTemplate(TemplateKey(fam), arts[ref[fam]])
		if err != nil {
			return nil, fmt.Errorf("engine: building %s template: %w", fam, err)
		}
		if store != nil {
			store.Put(clock, tmpl.ID(), tmpl.Encode())
		}
		out[fam] = tmpl
	}
	return out, nil
}
